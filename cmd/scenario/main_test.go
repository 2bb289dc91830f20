package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"policyinject/internal/scenario"
)

// TestWriteReportNestedPackName: a path-structured pack name like
// "attacks/three-field" must land in a subdirectory of the output dir,
// which writeReport creates on demand.
func TestWriteReportNestedPackName(t *testing.T) {
	rep, err := scenario.NewReporter("json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	res := &scenario.Result{Pack: "attacks/three-field"}

	path, err := writeReport(rep, dir, res.Pack, "json", res)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "attacks", "three-field.json")
	if path != want {
		t.Fatalf("wrote %s, want %s", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "attacks/three-field") {
		t.Fatalf("report does not mention the pack name:\n%s", data)
	}
}

// TestWriteReportErrorNamesPath: write failures carry the target path
// so a failing CI run says which report could not be produced.
func TestWriteReportErrorNamesPath(t *testing.T) {
	rep, err := scenario.NewReporter("json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Occupy the would-be subdirectory with a regular file.
	if err := os.WriteFile(filepath.Join(dir, "attacks"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = writeReport(rep, dir, "attacks/three-field", "json", &scenario.Result{})
	if err == nil {
		t.Fatal("writeReport succeeded with a file blocking the subdirectory")
	}
	if !strings.Contains(err.Error(), filepath.Join(dir, "attacks", "three-field.json")) {
		t.Fatalf("error does not name the report path: %v", err)
	}
}

// TestRunRefusesBadFlags: run refuses a measure mode other than wall or off
// and a negative sample count at flag parse, before any pack runs.
func TestRunRefusesBadFlags(t *testing.T) {
	pack := filepath.Join(t.TempDir(), "tiny.yaml")
	if err := os.WriteFile(pack, []byte("name: tiny\nduration: 1\nmeasure:\n  mode: off\n  cost_samples: 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-measure", "bogus"}, {"-samples", "-5"}} {
		if err := cmdRun(append(args, pack)); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("run %s %s: err = %v, want a refusal naming %s", args[0], args[1], err, args[0])
		}
	}
}
