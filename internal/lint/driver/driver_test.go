package driver_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"desiccant/internal/lint"
	"desiccant/internal/lint/driver"
)

// moduleRoot resolves the desiccant module directory from wherever the
// test binary runs.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Skipf("go command unavailable: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// TestRepoIsClean is the acceptance gate: the determinism-guard suite
// must report zero findings on this repository. A finding here means
// either a real nondeterminism bug or a missing //lint:allow
// annotation — fix the code, don't relax the test.
func TestRepoIsClean(t *testing.T) {
	diags, err := driver.Standalone(moduleRoot(t), []string{"./..."}, lint.All())
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding on clean tree: %s", d)
	}
}

// writeModule materializes a throwaway module for end-to-end runs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const negModMod = "module lintneg\n\ngo 1.22\n"

const negModBad = `package lintneg

import "time"

// Bad reads the wall clock without an annotation.
func Bad() time.Time { return time.Now() }

func ch(c chan int) {
	go func() { c <- 1 }()
}
`

// TestStandaloneFindsViolations runs the in-process driver over a
// module with known violations and checks both analyzers fire.
func TestStandaloneFindsViolations(t *testing.T) {
	dir := writeModule(t, map[string]string{"go.mod": negModMod, "bad.go": negModBad})
	diags, err := driver.Standalone(dir, []string{"./..."}, lint.All())
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer)
	}
	want := map[string]bool{"simtime": false, "rawgo": false}
	for _, name := range got {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("expected a %s finding, got %v", name, got)
		}
	}
}

// simStub is the slice of the sim package's handler API shardsafe
// recognizes.
const simStub = `package sim

type Time int64

type Engine struct{ now Time }

func (e *Engine) At(t Time, label string, fn func()) {}

type Sharded struct{ engines []*Engine }

func (s *Sharded) Domain(d int) *Engine { return s.engines[d] }

func (s *Sharded) Send(src int, at Time, dst int, label string, fn func()) {}
`

// TestMutationDetection seeds a throwaway module with one canonical
// violation per second-generation analyzer and proves each fires. This
// is the mutation-testing guard for TestRepoIsClean: a suite that
// passes on the clean tree is only meaningful if these mutants are
// caught.
func TestMutationDetection(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":     negModMod,
		"sim/sim.go": simStub,
		"mutants.go": `package lintneg

import "lintneg/sim"

// Fleet captures a counter in variable-destination handlers: the
// shardsafe mutant.
func Fleet(s *sim.Sharded, n int) int {
	acks := 0
	for d := 0; d < n; d++ {
		s.Send(0, 0, d, "ack", func() { acks++ })
	}
	return acks
}

// Span declares a pages result but returns its byte argument: the
// unitcheck mutant.
//
//lint:unit ret=pages
func Span(lenBytes int64) int64 {
	return lenBytes
}

// Hot is annotated allocation-free but appends: the allocfree mutant.
//
//lint:allocfree
func Hot(s []int64, v int64) []int64 {
	return append(s, v)
}
`,
	})
	diags, err := driver.Standalone(dir, []string{"./..."}, lint.All())
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	want := map[string]bool{"shardsafe": false, "unitcheck": false, "allocfree": false}
	for _, d := range diags {
		if _, ok := want[d.Analyzer]; ok {
			want[d.Analyzer] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("mutant for %s went undetected; findings: %v", name, diags)
		}
	}
}

// TestVettool builds cmd/desiccant-lint and drives it through the real
// `go vet -vettool` protocol: a violating module must fail with a
// simtime diagnostic, and the same module with annotations must pass.
func TestVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and invokes go vet")
	}
	root := moduleRoot(t)
	tool := filepath.Join(t.TempDir(), "desiccant-lint")
	build := exec.Command("go", "build", "-o", tool, "./cmd/desiccant-lint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build vettool: %v\n%s", err, out)
	}

	vet := func(dir string, patterns ...string) (string, error) {
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		cmd := exec.Command("go", append([]string{"vet", "-vettool=" + tool}, patterns...)...)
		cmd.Dir = dir
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = &buf
		err := cmd.Run()
		return buf.String(), err
	}

	badDir := writeModule(t, map[string]string{"go.mod": negModMod, "bad.go": negModBad})
	out, err := vet(badDir)
	if err == nil {
		t.Fatalf("go vet succeeded on violating module; output:\n%s", out)
	}
	for _, wantMsg := range []string{"simtime: time.Now", "rawgo: raw go statement"} {
		if !strings.Contains(out, wantMsg) {
			t.Errorf("vet output missing %q:\n%s", wantMsg, out)
		}
	}

	goodDir := writeModule(t, map[string]string{
		"go.mod": negModMod,
		"ok.go": `package lintneg

import "time"

// Stamp is annotated progress reporting, the sanctioned escape hatch.
func Stamp() time.Time {
	return time.Now() //lint:allow simtime
}
`,
	})
	if out, err := vet(goodDir); err != nil {
		t.Fatalf("go vet failed on clean module: %v\n%s", err, out)
	}

	// Handlers that call into sync and fmt. Under the vet protocol
	// every standard-library package is a facts-only unit; its own
	// globals (sync.allPools, reflect.dummy, runtime.allp, ...) are not
	// simulation state and must not surface as shardsafe findings.
	files := map[string]string{
		"go.mod":     negModMod,
		"sim/sim.go": simStub,
		"handlers.go": `package lintneg

import (
	"fmt"
	"strings"
	"sync"

	"lintneg/sim"
)

func Fleet(s *sim.Sharded, n int) {
	for d := 0; d < n; d++ {
		s.Send(0, 0, d, "log", func() {
			var mu sync.Mutex
			mu.Lock()
			defer mu.Unlock()
			p := &sync.Pool{New: func() any { return new(strings.Builder) }}
			b := p.Get().(*strings.Builder)
			fmt.Fprintf(b, "node %d", d)
			p.Put(b)
		})
	}
}
`,
	}
	if out, err := vet(writeModule(t, files)); err != nil {
		t.Fatalf("go vet reported standard-library internals: %v\n%s", err, out)
	}

	// Mutation: an in-module package-level write behind a call into
	// another package is still caught. Vetting only the root package
	// makes that package a facts-only unit too.
	files["stats/stats.go"] = `package stats

var Delivered int

func Bump() { Delivered++ }
`
	files["mutant.go"] = `package lintneg

import (
	"lintneg/sim"
	"lintneg/stats"
)

func Count(s *sim.Sharded, n int) {
	for d := 0; d < n; d++ {
		s.Send(0, 0, d, "count", func() { stats.Bump() })
	}
}
`
	out, err = vet(writeModule(t, files), ".")
	if err == nil || !strings.Contains(out, "shardsafe: handler calls stats.Bump, which writes package-level var lintneg/stats.Delivered") {
		t.Fatalf("in-module write through a facts-only unit went undetected: %v\n%s", err, out)
	}
	if strings.Contains(out, "fmt.Fprintf") {
		t.Errorf("standard-library internals reported next to the mutant:\n%s", out)
	}
}
