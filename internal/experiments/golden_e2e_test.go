package experiments

// End-to-end byte-identity tests for the page-accounting fast paths:
// fig1, the validation suite, and the chaos zero-intensity scenario
// are replayed on a fixed seed and their exported CSV/text compared
// byte-for-byte against goldens captured from the pre-fast-path
// per-page implementation. Any behavioural drift in osmem — a counter
// batched differently, a fault misclassified on a run boundary, a
// cache invalidated one call too late — lands in USS/RSS numbers and
// shows up here as a byte diff. Each artifact is also rendered at
// -parallel 1 and 4 and the two must match exactly.
//
// Regenerate (only when an intentional model change lands) with
//
//	go test ./internal/experiments -run TestGoldenE2E -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"desiccant/internal/sim"
)

var updateE2E = flag.Bool("update", false, "rewrite the e2e golden files")

// goldenChaosOptions is the zero-intensity control cell of the chaos
// sweep: the injector is attached but fires nothing, so the CSV is a
// pure function of the page accounting underneath.
func goldenChaosOptions(parallel int) ChaosOptions {
	o := DefaultChaosOptions()
	o.Window = 20 * sim.Second
	o.Requests = 100
	o.Intensities = []float64{0}
	o.Parallel = parallel
	return o
}

// renderE2E produces the three artifacts at the given parallelism.
func renderE2E(t *testing.T, parallel int) (fig1CSV, validateTxt, chaosCSV []byte) {
	t.Helper()

	single := DefaultSingleOptions()
	single.Iterations = 20
	single.Parallel = parallel
	f1, err := RunFig1(single)
	if err != nil {
		t.Fatal(err)
	}
	var f1buf bytes.Buffer
	f1.WriteCSV(&f1buf)

	val, err := RunValidation(Options{Quick: true, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	var vbuf bytes.Buffer
	val.WriteText(&vbuf)

	ch, err := RunChaos(goldenChaosOptions(parallel))
	if err != nil {
		t.Fatal(err)
	}
	var cbuf bytes.Buffer
	ch.WriteCSV(&cbuf)

	return f1buf.Bytes(), vbuf.Bytes(), cbuf.Bytes()
}

func checkE2EGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateE2E {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its committed golden (%d vs %d bytes); observable behaviour "+
			"changed — diff the files, regenerate with -update only if the model change is intended",
			name, len(got), len(want))
	}
}

func TestGoldenE2E(t *testing.T) {
	fig1p1, valp1, chaosp1 := renderE2E(t, 1)
	checkE2EGolden(t, "golden_fig1.csv", fig1p1)
	checkE2EGolden(t, "golden_validate.txt", valp1)
	checkE2EGolden(t, "golden_chaos0.csv", chaosp1)

	fig1p4, valp4, chaosp4 := renderE2E(t, 4)
	if !bytes.Equal(fig1p1, fig1p4) {
		t.Fatal("fig1 CSV differs between -parallel 1 and 4")
	}
	if !bytes.Equal(valp1, valp4) {
		t.Fatal("validation report differs between -parallel 1 and 4")
	}
	if !bytes.Equal(chaosp1, chaosp4) {
		t.Fatal("chaos zero-intensity CSV differs between -parallel 1 and 4")
	}
}

// TestSingleMachineGoldenPreRefactor pins the single-machine trace
// replays across commits: ext-snapstart, ext-prewarm, observe (snapshot
// and summary) and the trace subcommand's attribution CSV, all in
// quick mode. The goldens were captured before these runs moved onto
// one shared replay cell; the CSV of the trace subcommand is ~159 KB,
// so its golden is the SHA-256.
func TestSingleMachineGoldenPreRefactor(t *testing.T) {
	for _, c := range []struct {
		name, golden string
		opts         Options
	}{
		{"ext-snapstart", "golden_snapstart_quick.csv", Options{Quick: true}},
		{"ext-prewarm", "golden_prewarm_quick.csv", Options{Quick: true}},
		{"observe", "golden_observe_quick.csv", Options{Quick: true}},
		{"observe", "golden_observe_summary_quick.txt", Options{Quick: true, Summary: true}},
	} {
		var buf bytes.Buffer
		if err := Run(c.name, &buf, c.opts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkE2EGolden(t, c.golden, buf.Bytes())
	}

	// The trace subcommand's quick profile.
	var csv bytes.Buffer
	if err := RunAttrTrace(AttrTraceOptions{ReplayProfile: Options{Quick: true}.ReplayProfile(), CSV: &csv}); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(csv.Bytes())
	checkE2EGolden(t, "golden_trace_quick.csv.sha256", []byte(hex.EncodeToString(sum[:])+"\n"))
}
