package main

import (
	"strings"
	"testing"
	"time"

	"bandana/internal/iosched"
)

// TestValidateIOFlags covers the --io-* flag combinations: each flag stands
// alone (--io-qd 0 is the default depth, not "off"), nonsensical values are
// rejected, and so are modes that cannot honor a scheduler configuration
// (read-only replica bootstrap).
func TestValidateIOFlags(t *testing.T) {
	cases := []struct {
		name      string
		qd        int
		window    time.Duration
		qdSet     bool
		windowSet bool
		replica   bool
		wantErr   string
	}{
		{name: "defaults", qd: 0},
		{name: "scheduler on", qd: 8, qdSet: true},
		{name: "window without qd", window: time.Millisecond, windowSet: true},
		{name: "full config", qd: 16, window: time.Millisecond, qdSet: true, windowSet: true},
		{name: "negative qd", qd: -1, qdSet: true, wantErr: "out of range"},
		{name: "huge qd", qd: iosched.MaxTargetQueueDepth + 1, qdSet: true, wantErr: "out of range"},
		{name: "negative window", qd: 8, window: -time.Second, qdSet: true, windowSet: true, wantErr: "negative"},
		{name: "replica with qd", qd: 8, qdSet: true, replica: true, wantErr: "incompatible with --replica-of"},
		{name: "replica with window", windowSet: true, replica: true, wantErr: "incompatible with --replica-of"},
		{name: "replica without io flags", replica: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateIOFlags(tc.qd, tc.window, tc.qdSet, tc.windowSet, tc.replica)
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
