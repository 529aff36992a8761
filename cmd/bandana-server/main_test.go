package main

import (
	"strings"
	"testing"

	"bandana/internal/iosched"
)

// TestValidateIOFlags covers --io-qd: it stands alone (--io-qd 0 is the
// default depth, not "off"), nonsensical values are rejected, and so is
// replica mode, which cannot honor a scheduler configuration (read-only
// snapshot bootstrap).
func TestValidateIOFlags(t *testing.T) {
	cases := []struct {
		name    string
		qd      int
		qdSet   bool
		replica bool
		wantErr string
	}{
		{name: "defaults", qd: 0},
		{name: "scheduler on", qd: 8, qdSet: true},
		{name: "full config", qd: 16, qdSet: true},
		{name: "negative qd", qd: -1, qdSet: true, wantErr: "out of range"},
		{name: "huge qd", qd: iosched.MaxTargetQueueDepth + 1, qdSet: true, wantErr: "out of range"},
		{name: "replica with qd", qd: 8, qdSet: true, replica: true, wantErr: "incompatible with --replica-of"},
		{name: "replica without io flags", replica: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateIOFlags(tc.qd, tc.qdSet, tc.replica)
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
