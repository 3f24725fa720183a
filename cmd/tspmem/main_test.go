package main

import "testing"

func TestBlockingExpansions(t *testing.T) {
	for _, tc := range []struct{ stdout, want string }{
		{"  optimal tour cost: 3783; expansions: blocking=12244 adaptive=12244\n", "12,244"},
		{"expansions: blocking=1247509 adaptive=1247509", "1,247,509"},
		{"expansions: blocking=999 adaptive=999", "999"},
		{"no table here", "?"},
	} {
		if got := blockingExpansions(tc.stdout); got != tc.want {
			t.Errorf("blockingExpansions(%q) = %q, want %q", tc.stdout, got, tc.want)
		}
	}
}
