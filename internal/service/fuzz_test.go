package service

import (
	"errors"
	"strings"
	"testing"

	"mussti/internal/eval"
)

// FuzzCompileRequest drives arbitrary bytes through the /v1/compile input
// boundary — the JSON decode and resolve, which parses and lowers QASM and
// builds the target — without compiling. Whatever the body, resolution must
// not panic, every refusal must be a client error (a 400, never a 500),
// and an accepted request must carry a label, a cache key and a runnable
// task.
func FuzzCompileRequest(f *testing.F) {
	for _, tc := range badRequests {
		f.Add(tc.body)
	}
	f.Add(`{"app":"QFT_n32","config":{"mapping":"trivial","look_ahead":4,"replacement":"belady"}}`)
	f.Add(`{"app":"GHZ_n16","grid":{"rows":2,"cols":3,"capacity":8}}`)
	f.Add(`{"app":"BV_n16","arch":{"modules":2,"trap_capacity":12,"optical_zones":1}}`)
	f.Add(`{"qasm":"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\nccx q[0],q[1],q[2];\nmeasure q[0] -> c[0];","lower":true,"name":"toy"}`)
	s, err := New(Options{Runner: eval.NewRunner(1)})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeCompileRequest(strings.NewReader(body))
		if err != nil {
			return
		}
		task, err := s.resolve(&req)
		if err != nil {
			if !errors.As(err, new(badRequest)) {
				t.Fatalf("resolve refused %q with a non-client error: %v", body, err)
			}
			return
		}
		if task.label == "" || task.key == "" || task.run == nil {
			t.Fatalf("resolve accepted %q into an incomplete task: label=%q key=%q", body, task.label, task.key)
		}
	})
}
