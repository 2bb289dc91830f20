// Package scenario is the declarative experiment layer of the repo: a
// *pack* is a small YAML or JSON file declaring the whole scenario —
// datapath variant, tenants and policies, traffic mixes, the attack
// schedule, expected-metric assertions — which the runner compiles onto
// the existing sim/traffic/attack machinery and executes
// deterministically. Reporters (human, JSON, CSV) render the common
// Result type. The split — runner vs reporters vs packs-as-data — means
// new scenarios are data files, not simulator edits.
//
//lint:deterministic
package scenario

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Load reads one pack file (.yaml, .yml or .json) from the filesystem.
func Load(path string) (*Pack, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadBytes(path, data)
}

// LoadFS reads one pack file from an fs.FS (e.g. the embedded corpus).
func LoadFS(fsys fs.FS, path string) (*Pack, error) {
	data, err := fs.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	return LoadBytes(path, data)
}

// LoadBytes parses and binds a pack document. The format follows the
// file extension: .json parses as JSON, anything else as YAML. Errors
// are file:line: path qualified.
func LoadBytes(file string, data []byte) (*Pack, error) {
	var (
		root *node
		err  error
	)
	if strings.EqualFold(filepath.Ext(file), ".json") {
		root, err = parseJSON(file, data)
	} else {
		root, err = parseYAML(file, data)
	}
	if err != nil {
		return nil, err
	}
	b := &binder{file: file}
	base, err := b.bindPack(root)
	if err != nil {
		return nil, err
	}
	variants, err := b.bindVariants(root, base)
	if err != nil {
		return nil, err
	}
	base.Variants = variants
	if err := checkExpectVariants(file, root, base); err != nil {
		return nil, err
	}
	return base, nil
}

// checkExpectVariants rejects an expectation whose variant names none of
// the pack's variants.
func checkExpectVariants(file string, root *node, p *Pack) error {
	names := make([]string, len(p.Variants))
	for i, v := range p.Variants {
		names[i] = v.Variant
	}
	for i, e := range p.Expect {
		if e.Variant == "" || slices.Contains(names, e.Variant) {
			continue
		}
		n := root.fields["expect"].items[i].fields["variant"]
		return fmt.Errorf("%s:%d: expect[%d].variant: no variant %q (have %s)",
			file, n.line, i, e.Variant, strings.Join(names, ", "))
	}
	return nil
}

// bindVariants extracts the variants sequence and binds one effective
// pack per entry: the base document with the variant's overlay merged on
// top. A pack without variants gets one implicit "default" variant (the
// base itself).
func (b *binder) bindVariants(root *node, base *Pack) (variants []*Pack, err error) {
	defer func() {
		if r := recover(); r != nil {
			be, ok := r.(bindError)
			if !ok {
				panic(r)
			}
			variants, err = nil, be.err
		}
	}()
	vn := root.fields["variants"]
	if vn == nil {
		v := *base
		v.Variants, v.Variant = nil, "default"
		return []*Pack{&v}, nil
	}
	if vn.kind != seqNode {
		b.failf(vn, "variants", "expected a sequence, got a %s", vn.kindName())
	}
	seen := map[string]bool{}
	for i, item := range vn.items {
		path := fmt.Sprintf("variants[%d]", i)
		if item.kind != mapNode {
			b.failf(item, path, "expected a mapping, got a %s", item.kindName())
		}
		nameNode := item.fields["name"]
		if nameNode == nil || nameNode.kind != scalarNode || nameNode.scalar == "" {
			b.failf(item, path+".name", "required")
		}
		name := nameNode.scalar
		if seen[name] {
			b.failf(nameNode, path+".name", "duplicate variant %q", name)
		}
		seen[name] = true

		// The overlay is the variant mapping without its name key.
		overlay := &node{kind: mapNode, line: item.line, fields: map[string]*node{}}
		for _, k := range item.keys {
			if k == "name" {
				continue
			}
			overlay.keys = append(overlay.keys, k)
			overlay.fields[k] = item.fields[k]
		}
		merged := mergeNodes(root, overlay)
		delete(merged.fields, "variants")
		for j, k := range merged.keys {
			if k == "variants" {
				merged.keys = append(merged.keys[:j], merged.keys[j+1:]...)
				break
			}
		}
		vp, err := b.bindPack(merged)
		if err != nil {
			return nil, fmt.Errorf("%s (in variant %q)", err, name)
		}
		vp.Variant = name
		variants = append(variants, vp)
	}
	return variants, nil
}

// packExts are the extensions Discover treats as pack files.
func isPackFile(name string) bool {
	switch strings.ToLower(filepath.Ext(name)) {
	case ".yaml", ".yml", ".json":
		return true
	}
	return false
}

// Discover resolves pack file paths from CLI arguments: a file names
// itself, a directory lists its immediate pack files, and the Go-style
// "dir/..." suffix walks the tree. Results are sorted.
func Discover(args []string) ([]string, error) {
	var out []string
	for _, arg := range args {
		recursive := false
		if strings.HasSuffix(arg, "/...") {
			recursive = true
			arg = strings.TrimSuffix(arg, "/...")
		}
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		switch {
		case !info.IsDir():
			out = append(out, arg)
		case recursive:
			err := filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() && isPackFile(path) {
					out = append(out, path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			entries, err := os.ReadDir(arg)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				if !e.IsDir() && isPackFile(e.Name()) {
					out = append(out, filepath.Join(arg, e.Name()))
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// DiscoverFS lists every pack file in an fs.FS, sorted — the embedded
// corpus walk.
func DiscoverFS(fsys fs.FS) ([]string, error) {
	var out []string
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && isPackFile(path) {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
