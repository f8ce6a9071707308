package main

import (
	"strings"
	"testing"

	"rmssd/internal/perfcase"
)

// TestRunMicroNamesFailedCases: testing.Benchmark swallows a case's
// failure, so runMicro must turn it into an error naming the case (and
// only the failed ones).
func TestRunMicroNamesFailedCases(t *testing.T) {
	cases := []perfcase.Case{
		{Name: "passing_case", Setup: func(testing.TB) func() { return func() {} }},
		{Name: "failing_case", Setup: func(tb testing.TB) func() {
			tb.Fatal("setup failed")
			return nil
		}},
	}
	rep, err := runMicro(cases)
	if err == nil {
		t.Fatalf("a failing case passed: %v", rep)
	}
	msg := err.Error()
	if !strings.Contains(msg, "failing_case") || strings.Contains(msg, "passing_case") {
		t.Fatalf("error names the wrong cases: %v", err)
	}
	if !strings.Contains(msg, "go test -run=TestCeilings ./internal/perfcase/") {
		t.Fatalf("error does not say where the case's output is: %v", err)
	}
}
