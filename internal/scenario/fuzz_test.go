package scenario_test

import (
	"os"
	"path/filepath"
	"testing"

	"policyinject/internal/scenario"
	"policyinject/scenarios"
)

// FuzzPackBind: a pack file is an input boundary, so LoadBytes on any bytes,
// bound as YAML and as JSON, returns a pack or an error — exactly one — and
// never panics. Seeded with every pack of the embedded corpus and the JSON
// fixture of the rejected packs.
func FuzzPackBind(f *testing.F) {
	files, err := scenario.DiscoverFS(scenarios.FS)
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		data, err := scenarios.FS.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "bad", "unknown-key.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range []string{"fuzz.yaml", "fuzz.json"} {
			p, err := scenario.LoadBytes(name, data)
			if (p == nil) == (err == nil) {
				t.Fatalf("%s: LoadBytes = %v, %v: want a pack or an error", name, p, err)
			}
		}
	})
}
