package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"pftk/internal/experiments"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "fig12"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "fig12") || !strings.Contains(s, "markov") {
		t.Errorf("report missing content:\n%s", s)
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "fig99"}, &out, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestCSVExport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	var out bytes.Buffer
	if err := run([]string{"-run", "fig13", "-out", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no CSV files exported")
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "series,") {
		t.Errorf("unexpected CSV header: %s", string(data[:50]))
	}
}

func TestScaledCampaign(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-run", "table2", "-hour", "200"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "durations scaled to 200s") {
		t.Errorf("scale flag ignored:\n%s", out.String())
	}
}

func TestSVGAndHTMLExport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "r")
	var out bytes.Buffer
	if err := run([]string{"-run", "fig12", "-out", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(filepath.Join(dir, "fig12_fig0.svg"))
	if err != nil {
		t.Fatalf("svg missing: %v", err)
	}
	if !strings.Contains(string(svg), "<svg") || !strings.Contains(string(svg), "polyline") {
		t.Error("svg malformed")
	}
	html, err := os.ReadFile(filepath.Join(dir, "report.html"))
	if err != nil {
		t.Fatalf("report.html missing: %v", err)
	}
	page := string(html)
	for _, want := range []string{"<!DOCTYPE html>", "fig12", "<svg", "markov"} {
		if !strings.Contains(page, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestUnknownExperimentListsIDs pins the self-correcting error: a typo'd
// -run value must produce an error naming every valid experiment ID.
func TestUnknownExperimentListsIDs(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-run", "fig99"}, &out, io.Discard)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	msg := err.Error()
	for _, id := range experiments.IDs() {
		if !strings.Contains(msg, id) {
			t.Errorf("error %q does not list valid id %q", msg, id)
		}
	}
}

// TestVersionFlag checks -version prints and exits cleanly.
func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-version"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "experiments ") {
		t.Errorf("version output malformed: %q", out.String())
	}
}

// TestMetricsManifestAndCheckObs is the end-to-end observability path:
// run an abbreviated campaign with -metrics/-progress/-out, then validate
// the produced directory with -checkobs.
func TestMetricsManifestAndCheckObs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	metrics := filepath.Join(dir, "metrics.jsonl")
	var out, errBuf bytes.Buffer
	err := run([]string{
		"-run", "table2", "-hour", "60",
		"-out", dir, "-metrics", metrics, "-progress",
	}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "hour campaign") {
		t.Errorf("no progress lines on stderr:\n%s", errBuf.String())
	}
	if !strings.Contains(out.String(), "metric records written") {
		t.Errorf("no metrics summary on stdout:\n%s", out.String())
	}

	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatalf("manifest missing: %v", err)
	}
	for _, want := range []string{`"tool": "experiments"`, `"id": "table2"`, `"metrics_file"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("manifest missing %s:\n%s", want, data)
		}
	}

	var check bytes.Buffer
	if err := run([]string{"-checkobs", dir}, &check, io.Discard); err != nil {
		t.Fatalf("checkobs rejected a fresh results dir: %v", err)
	}
	s := check.String()
	if !strings.Contains(s, "manifest ok") || !strings.Contains(s, "metrics ok") {
		t.Errorf("checkobs output incomplete:\n%s", s)
	}
}

// TestCheckObsRejectsGarbage confirms validation actually fails on a
// malformed directory.
func TestCheckObsRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(`{"schema_version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-checkobs", dir}, &out, io.Discard); err == nil {
		t.Error("bad manifest accepted")
	}
	if err := run([]string{"-checkobs", t.TempDir()}, &out, io.Discard); err == nil {
		t.Error("empty dir accepted")
	}
}

// TestDebugAddr spins up the diagnostics server on a random port and
// fetches expvar.
func TestDebugAddr(t *testing.T) {
	var out bytes.Buffer
	var errBuf bytes.Buffer
	if err := run([]string{"-run", "fig12", "-debugaddr", "127.0.0.1:0"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "debug server on http://") {
		t.Errorf("debug address not announced:\n%s", errBuf.String())
	}
}

// TestFlagValidation rejects non-positive campaign dimensions instead of
// silently falling back to the full paper-scale defaults.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero hour", []string{"-run", "table2", "-hour", "0"}, "-hour must be"},
		{"negative hour", []string{"-run", "table2", "-hour", "-60"}, "-hour must be"},
		{"zero traces", []string{"-run", "fig8", "-traces", "0"}, "-traces must be"},
		{"negative short", []string{"-run", "fig8", "-short", "-5"}, "-short must be"},
		{"negative workers", []string{"-run", "table2", "-j", "-2"}, "-j must be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out, io.Discard)
			if err == nil {
				t.Fatalf("args %v: expected error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("args %v: error %q missing %q", tc.args, err, tc.want)
			}
			if out.Len() > 0 {
				t.Errorf("args %v: output produced despite validation error", tc.args)
			}
		})
	}
}

// TestParallelFlagMatchesSerial runs an abbreviated campaign twice, -j 1
// vs -j 4, and requires byte-identical reports on stdout.
func TestParallelFlagMatchesSerial(t *testing.T) {
	var serial, parallel bytes.Buffer
	args := []string{"-run", "table2", "-hour", "60", "-salt", "5"}
	if err := run(append(args, "-j", "1"), &serial, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-j", "4"), &parallel, io.Discard); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("-j 1 and -j 4 reports differ:\n%s\nvs\n%s", serial.String(), parallel.String())
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write non-empty pprof
// files covering the campaign.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	err := run([]string{"-run", "fig12", "-cpuprofile", cpu, "-memprofile", mem}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}
