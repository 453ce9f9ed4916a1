package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pftk"
	"pftk/internal/trace"
)

// writeTestTrace simulates a connection and writes its trace to a file.
func writeTestTrace(t *testing.T, jsonl bool) string {
	t.Helper()
	res := pftk.Sim(
		pftk.WithPath(0.1), pftk.WithLoss(0.03), pftk.WithWindow(16), pftk.WithMinRTO(1),
		pftk.WithDuration(300), pftk.WithSeed(5),
	)
	name := "t.pftk"
	if jsonl {
		name = "t.jsonl"
	}
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if jsonl {
		err = trace.EncodeJSONL(f, res.Trace)
	} else {
		err = trace.Encode(f, res.Trace)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

var update = flag.Bool("update", false, "rewrite examples/scenarios/outage.golden from the current output")

const (
	outageScenario = "../../examples/scenarios/outage.json"
	outageGolden   = "../../examples/scenarios/outage.golden"
)

// TestOutageGolden runs the bundled outage scenario end to end: the
// transfer `tracesim -rtt 0.1 -loss 0.01 -wm 32 -dur 600 -seed 42
// -scenario examples/scenarios/outage.json` simulates, analyzed at
// 100-s intervals, must print the committed golden report byte for
// byte. Nondeterminism in the scenario engine, or an unintended change
// to the simulator or the analysis, shows up here. With -update (make
// scenario-golden) it rewrites the golden instead.
func TestOutageGolden(t *testing.T) {
	sc, err := pftk.ParseScenarioFile(outageScenario)
	if err != nil {
		t.Fatal(err)
	}
	res := pftk.Sim(
		pftk.WithPath(0.1), pftk.WithBurstLoss(0.01, 0), pftk.WithWindow(32), pftk.WithMinRTO(1),
		pftk.WithDuration(600), pftk.WithSeed(42), pftk.WithOS("reno"), pftk.WithScenario(sc),
	)
	path := filepath.Join(t.TempDir(), "outage.pftk")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Encode(f, res.Trace); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-interval", "100", path}, &out); err != nil {
		t.Fatal(err)
	}

	if *update {
		if err := os.WriteFile(outageGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(outageGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("report differs from %s (run make scenario-golden after an intended change):\n--- got\n%s--- want\n%s",
			outageGolden, out.Bytes(), want)
	}
}

func TestAnalyzeBinaryTrace(t *testing.T) {
	path := writeTestTrace(t, false)
	var out bytes.Buffer
	if err := run([]string{"-wm", "16", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Trace summary", "Intervals", "Average error",
		"full", "TD only", "RTT-window correlation",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in report", want)
		}
	}
}

func TestAnalyzeJSONLTrace(t *testing.T) {
	path := writeTestTrace(t, true)
	var out bytes.Buffer
	if err := run([]string{"-format", "jsonl", "-wm", "16", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Trace summary") {
		t.Error("no summary in jsonl report")
	}
}

func TestBinaryMisdetectionHint(t *testing.T) {
	path := writeTestTrace(t, true) // jsonl content
	var out bytes.Buffer
	err := run([]string{path}, &out) // read as binary
	if err == nil || !strings.Contains(err.Error(), "-format") {
		t.Errorf("expected a -format hint, got %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("missing file should error")
	}
	if err := run([]string{"/does/not/exist.pftk"}, &out); err == nil {
		t.Error("nonexistent file should error")
	}
	path := writeTestTrace(t, false)
	if err := run([]string{"-format", "pcapng", path}, &out); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestAnalyzeTcpdumpFormat(t *testing.T) {
	res := pftk.Sim(
		pftk.WithPath(0.1), pftk.WithLoss(0.03), pftk.WithWindow(16), pftk.WithMinRTO(1),
		pftk.WithDuration(200), pftk.WithSeed(6),
	)
	path := filepath.Join(t.TempDir(), "t.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeTcpdump(f, res.Trace); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := run([]string{"-format", "tcpdump", "-wm", "16", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Trace summary") {
		t.Error("no summary from tcpdump input")
	}
}

func TestDupThreshChangesClassification(t *testing.T) {
	path := writeTestTrace(t, false)
	var a, b bytes.Buffer
	if err := run([]string{"-dupthresh", "3", path}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dupthresh", "100", path}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Error("dupthresh had no effect on classification")
	}
}

func TestFlightFlag(t *testing.T) {
	path := writeTestTrace(t, false)
	var out bytes.Buffer
	if err := run([]string{"-wm", "16", "-flight", path}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Flight reconstruction", "mean flight", "peak flight", "idle fraction"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q", want)
		}
	}
}

// TestVersionFlag checks -version prints the build identity.
func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "traceanal ") {
		t.Errorf("version output malformed: %q", out.String())
	}
}

// TestFlagValidation rejects non-positive interval widths and negative
// thresholds with a clear error before any file is read.
func TestFlagValidation(t *testing.T) {
	path := writeTestTrace(t, false)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero interval", []string{"-interval", "0", path}, "-interval must be"},
		{"negative interval", []string{"-interval", "-100", path}, "-interval must be"},
		{"negative dupthresh", []string{"-dupthresh", "-1", path}, "-dupthresh must be"},
		{"negative wm", []string{"-wm", "-4", path}, "-wm must be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("args %v: expected error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("args %v: error %q missing %q", tc.args, err, tc.want)
			}
		})
	}
}
