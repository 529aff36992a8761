package main

import (
	"strings"
	"testing"

	"bandana/internal/iosched"
)

// TestValidateFlags covers the flag error paths: unknown modes, scheduler
// flags applied to modes that drive the device directly, and out-of-range
// queue depths.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mode    string
		ioQD    int
		ioQDSet bool
		wantErr string
	}{
		{name: "qd default", mode: "qd"},
		{name: "load", mode: "load"},
		{name: "qd-sweep default", mode: "qd-sweep"},
		{name: "qd-sweep with depth", mode: "qd-sweep", ioQD: 8, ioQDSet: true},
		{name: "unknown mode", mode: "warp", wantErr: "unknown mode"},
		{name: "io-qd in qd mode", mode: "qd", ioQD: 8, ioQDSet: true, wantErr: "only meaningful with --mode qd-sweep"},
		{name: "negative io-qd", mode: "qd-sweep", ioQD: -2, ioQDSet: true, wantErr: "out of range"},
		{name: "huge io-qd", mode: "qd-sweep", ioQD: iosched.MaxTargetQueueDepth + 1, ioQDSet: true, wantErr: "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.mode, tc.ioQD, tc.ioQDSet)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
