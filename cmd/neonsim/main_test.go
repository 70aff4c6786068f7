package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the neonsim command: with
// NEONSIM_RUN_MAIN=1 in its environment it runs main with its own
// command-line arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("NEONSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadLoadExitsPromptly is the regression test for non-finite and
// out-of-range -load values. Each once hung the serve experiment: NaN,
// Inf, and 1e12 drove the arrival generators to spin at one instant,
// and 1e-12 produced gaps whose float-to-Duration conversion went
// negative. Now NaN, Inf, and 1e12 are refused with an error before any
// job runs, 1e-12 serves a silent population, and none panics.
func TestBadLoadExitsPromptly(t *testing.T) {
	for _, tc := range []struct {
		load    string
		wantErr bool
	}{
		{"NaN", true},
		{"Inf", true},
		{"1e12", true},
		{"1e-12", false},
	} {
		t.Run(tc.load, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-exp", "serve", "-quick", "-parallel", "1", "-load", tc.load)
			cmd.Env = append(os.Environ(), "NEONSIM_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("-load %s still running after 60s", tc.load)
			}
			if strings.Contains(stderr.String(), "panic") {
				t.Fatalf("-load %s panicked:\n%s", tc.load, stderr.String())
			}
			var exit *exec.ExitError
			switch {
			case tc.wantErr && !errors.As(err, &exit):
				t.Fatalf("-load %s exited cleanly (err %v), want an error exit", tc.load, err)
			case tc.wantErr && !strings.Contains(stderr.String(), "-load"):
				t.Fatalf("-load %s error does not name the flag:\n%s", tc.load, stderr.String())
			case !tc.wantErr && err != nil:
				t.Fatalf("-load %s: %v\n%s", tc.load, err, stderr.String())
			}
		})
	}
}

// TestBadWeightsExitsPromptly is the regression test for non-finite
// -weights factors: NaN and Inf once passed flag parsing and panicked
// inside a tiers job. Now they are refused with an error naming the
// flag before any job runs, and a finite contract still runs cleanly.
func TestBadWeightsExitsPromptly(t *testing.T) {
	for _, tc := range []struct {
		weights string
		wantErr bool
	}{
		{"NaN,1,1", true},
		{"Inf,1,1", true},
		{"1,-Inf,1", true},
		{"4,1,1", false},
	} {
		t.Run(tc.weights, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], "-exp", "tiers", "-quick", "-parallel", "1", "-weights", tc.weights)
			cmd.Env = append(os.Environ(), "NEONSIM_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("-weights %s still running after 60s", tc.weights)
			}
			if strings.Contains(stderr.String(), "panic") {
				t.Fatalf("-weights %s panicked:\n%s", tc.weights, stderr.String())
			}
			var exit *exec.ExitError
			switch {
			case tc.wantErr && !errors.As(err, &exit):
				t.Fatalf("-weights %s exited cleanly (err %v), want an error exit", tc.weights, err)
			case tc.wantErr && !strings.Contains(stderr.String(), "-weights"):
				t.Fatalf("-weights %s error does not name the flag:\n%s", tc.weights, stderr.String())
			case !tc.wantErr && err != nil:
				t.Fatalf("-weights %s: %v\n%s", tc.weights, err, stderr.String())
			}
		})
	}
}
