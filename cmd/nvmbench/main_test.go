package main

import (
	"strings"
	"testing"
)

// TestValidateFlags covers the mode flag: the two modes and an unknown one.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mode    string
		wantErr string
	}{
		{name: "qd default", mode: "qd"},
		{name: "load", mode: "load"},
		{name: "unknown mode", mode: "warp", wantErr: "unknown mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.mode)
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
