package main

import (
	"math"
	"testing"
)

func TestRunSetups(t *testing.T) {
	for _, setup := range []string{"vanilla", "eager", "desiccant", "swap"} {
		setup := setup
		t.Run(setup, func(t *testing.T) {
			if err := run("fft", 10, 10, setup, 512, 8, false, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunAllFunctionsRoundRobin(t *testing.T) {
	if err := run("", 5, 8, "desiccant", 1024, 8, false, 2); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithCacheTrace(t *testing.T) {
	if err := run("sort", 5, 4, "vanilla", 512, 8, true, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("bogus-fn", 1, 1, "vanilla", 512, 8, false, 1); err == nil {
		t.Fatal("unknown function accepted")
	}
	if err := run("fft", 1, 1, "bogus-setup", 512, 8, false, 1); err == nil {
		t.Fatal("unknown setup accepted")
	}
	for _, rate := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		if err := run("fft", rate, 1, "vanilla", 512, 8, false, 1); err == nil {
			t.Fatalf("-rate %v accepted", rate)
		}
	}
}
