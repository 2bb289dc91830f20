// Package scenario is the declarative scenario-pack subsystem: a pack is
// a small YAML/JSON file declaring tenants, policies, traffic mixes, an
// attack schedule, datapath/mitigation variants, a seed and
// expected-metric assertions; the runner compiles every variant onto one
// timeline engine over the existing sim/traffic/attack machinery and
// executes it deterministically; pluggable reporters (human table, JSON,
// CSV) render a common Result. cmd/scenario is the CLI.
//
// The split — runners vs reporters vs output formats, packs as data — is
// modelled on elastic-package's benchrunner (see ROADMAP item 2).
package scenario

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// nodeKind discriminates the parsed document tree.
type nodeKind uint8

const (
	scalarNode nodeKind = iota
	mapNode
	seqNode
)

// node is one vertex of a parsed pack document. Both the YAML-subset
// parser and the JSON tokenizer produce this tree, so binding and error
// reporting (file:line: path: message) are format-agnostic.
type node struct {
	kind   nodeKind
	line   int
	scalar string // scalarNode: raw text, unquoted
	quoted bool   // scalarNode: was a quoted string literal
	keys   []string
	fields map[string]*node // mapNode, keyed in keys order
	items  []*node          // seqNode
}

func (n *node) kindName() string {
	switch n.kind {
	case mapNode:
		return "mapping"
	case seqNode:
		return "sequence"
	default:
		return "scalar"
	}
}

// mergeNodes overlays b onto a: maps merge recursively (b's keys win),
// anything else is replaced by b. Neither input is mutated. This is how a
// pack variant overlay produces its effective document.
func mergeNodes(a, b *node) *node {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.kind != mapNode || b.kind != mapNode {
		return b
	}
	out := &node{kind: mapNode, line: a.line, fields: map[string]*node{}}
	for _, k := range a.keys {
		out.keys = append(out.keys, k)
		out.fields[k] = a.fields[k]
	}
	for _, k := range b.keys {
		if prev, ok := out.fields[k]; ok {
			out.fields[k] = mergeNodes(prev, b.fields[k])
		} else {
			out.keys = append(out.keys, k)
			out.fields[k] = b.fields[k]
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// YAML subset parser.
//
// The subset covers what packs need and nothing else: nested mappings by
// two-space indentation, block sequences ("- item", including "- key: v"
// inline-mapping items), inline sequences ("[a, b]"), quoted and plain
// scalars, comments, blank lines. No anchors, no multi-document streams,
// no multi-line scalars, no tabs.

type yamlLine struct {
	indent  int
	text    string // content with indentation stripped
	lineNum int    // 1-based
}

type yamlParser struct {
	file  string
	lines []yamlLine
	pos   int
}

func parseYAML(file string, data []byte) (*node, error) {
	p := &yamlParser{file: file}
	for i, raw := range strings.Split(string(data), "\n") {
		lineNum := i + 1
		content := stripComment(raw)
		trimmed := strings.TrimRight(content, " \r")
		if strings.TrimSpace(trimmed) == "" {
			continue
		}
		indent := 0
		for indent < len(trimmed) && trimmed[indent] == ' ' {
			indent++
		}
		if strings.HasPrefix(trimmed[indent:], "\t") || strings.Contains(trimmed[:indent], "\t") {
			return nil, fmt.Errorf("%s:%d: tab in indentation (use spaces)", file, lineNum)
		}
		p.lines = append(p.lines, yamlLine{indent: indent, text: trimmed[indent:], lineNum: lineNum})
	}
	if len(p.lines) == 0 {
		return nil, fmt.Errorf("%s: empty document", file)
	}
	n, err := p.parseBlock(p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, fmt.Errorf("%s:%d: unexpected de-indented content %q", file, l.lineNum, l.text)
	}
	return n, nil
}

// stripComment removes a trailing "# ..." comment, respecting quotes.
func stripComment(s string) string {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inDouble {
				inSingle = !inSingle
			}
		case '"':
			if !inSingle {
				inDouble = !inDouble
			}
		case '#':
			if !inSingle && !inDouble && (i == 0 || s[i-1] == ' ' || s[i-1] == '\t') {
				return s[:i]
			}
		}
	}
	return s
}

// parseBlock parses the run of lines at exactly indent, returning a map or
// sequence node (a lone scalar line yields a scalar node).
func (p *yamlParser) parseBlock(indent int) (*node, error) {
	first := p.lines[p.pos]
	if strings.HasPrefix(first.text, "- ") || first.text == "-" {
		return p.parseSeq(indent)
	}
	return p.parseMap(indent)
}

func (p *yamlParser) parseMap(indent int) (*node, error) {
	out := &node{kind: mapNode, line: p.lines[p.pos].lineNum, fields: map[string]*node{}}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, fmt.Errorf("%s:%d: unexpected indentation", p.file, l.lineNum)
		}
		if strings.HasPrefix(l.text, "- ") || l.text == "-" {
			return nil, fmt.Errorf("%s:%d: sequence item in mapping context", p.file, l.lineNum)
		}
		key, rest, err := splitKey(p.file, l)
		if err != nil {
			return nil, err
		}
		if _, dup := out.fields[key]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate key %q", p.file, l.lineNum, key)
		}
		p.pos++
		var child *node
		if rest != "" {
			child, err = parseFlowScalar(p.file, l.lineNum, rest)
			if err != nil {
				return nil, err
			}
		} else {
			// Nested block, or an empty value.
			if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
				child, err = p.parseBlock(p.lines[p.pos].indent)
				if err != nil {
					return nil, err
				}
			} else {
				child = &node{kind: scalarNode, line: l.lineNum, scalar: ""}
			}
		}
		out.keys = append(out.keys, key)
		out.fields[key] = child
	}
	return out, nil
}

func (p *yamlParser) parseSeq(indent int) (*node, error) {
	out := &node{kind: seqNode, line: p.lines[p.pos].lineNum}
	for p.pos < len(p.lines) {
		l := p.lines[p.pos]
		if l.indent != indent || (!strings.HasPrefix(l.text, "- ") && l.text != "-") {
			break
		}
		rest := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		if rest == "" {
			// "-" alone: the item is the nested block on following lines.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("%s:%d: empty sequence item", p.file, l.lineNum)
			}
			item, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			out.items = append(out.items, item)
			continue
		}
		if k, _, err := splitKey(p.file, yamlLine{text: rest, lineNum: l.lineNum}); err == nil && k != "" {
			// "- key: value": an inline mapping item. Rewrite the line as the
			// first pair of a map indented past the dash and parse the map.
			p.lines[p.pos] = yamlLine{indent: indent + 2, text: rest, lineNum: l.lineNum}
			item, err := p.parseMap(indent + 2)
			if err != nil {
				return nil, err
			}
			out.items = append(out.items, item)
			continue
		}
		// Plain scalar item.
		item, err := parseFlowScalar(p.file, l.lineNum, rest)
		if err != nil {
			return nil, err
		}
		out.items = append(out.items, item)
		p.pos++
	}
	return out, nil
}

// splitKey splits "key: value" / "key:"; the key must be a bare word (no
// quotes, no colon), which every pack schema key is.
func splitKey(file string, l yamlLine) (key, rest string, err error) {
	i := strings.Index(l.text, ":")
	if i <= 0 {
		return "", "", fmt.Errorf("%s:%d: expected \"key: value\", got %q", file, l.lineNum, l.text)
	}
	key = strings.TrimSpace(l.text[:i])
	rest = strings.TrimSpace(l.text[i+1:])
	if key == "" || strings.ContainsAny(key, " \"'[]{},") {
		return "", "", fmt.Errorf("%s:%d: invalid key %q", file, l.lineNum, key)
	}
	if i+1 < len(l.text) && l.text[i+1] != ' ' {
		return "", "", fmt.Errorf("%s:%d: missing space after %q:", file, l.lineNum, key)
	}
	return key, rest, nil
}

// parseFlowScalar parses an inline value: "[a, b, c]" or a scalar.
func parseFlowScalar(file string, lineNum int, s string) (*node, error) {
	if strings.HasPrefix(s, "[") {
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("%s:%d: unterminated inline sequence %q", file, lineNum, s)
		}
		out := &node{kind: seqNode, line: lineNum}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		if inner == "" {
			return out, nil
		}
		for _, part := range strings.Split(inner, ",") {
			item, err := parseFlowScalar(file, lineNum, strings.TrimSpace(part))
			if err != nil {
				return nil, err
			}
			out.items = append(out.items, item)
		}
		return out, nil
	}
	if strings.HasPrefix(s, "{") {
		return nil, fmt.Errorf("%s:%d: inline mappings are not supported; use block form", file, lineNum)
	}
	n := &node{kind: scalarNode, line: lineNum, scalar: s}
	if len(s) >= 2 {
		if (s[0] == '"' && s[len(s)-1] == '"') || (s[0] == '\'' && s[len(s)-1] == '\'') {
			n.scalar = s[1 : len(s)-1]
			n.quoted = true
		}
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// JSON front end: the same node tree via encoding/json's tokenizer, with
// line numbers recovered from byte offsets.

func parseJSON(file string, data []byte) (*node, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.UseNumber()
	lineAt := lineIndex(data)
	root, err := jsonValue(dec, file, lineAt)
	if err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("%s:%d: trailing content after document", file, lineAt(dec.InputOffset()))
	}
	return root, nil
}

// lineIndex returns offset→1-based-line for data.
func lineIndex(data []byte) func(int64) int {
	var starts []int64
	starts = append(starts, 0)
	for i, b := range data {
		if b == '\n' {
			starts = append(starts, int64(i+1))
		}
	}
	return func(off int64) int {
		lo, hi := 0, len(starts)-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if starts[mid] <= off {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		return lo + 1
	}
}

func jsonValue(dec *json.Decoder, file string, lineAt func(int64) int) (*node, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, fmt.Errorf("%s:%d: %v", file, lineAt(dec.InputOffset()), err)
	}
	line := lineAt(dec.InputOffset())
	switch t := tok.(type) {
	case json.Delim:
		switch t {
		case '{':
			out := &node{kind: mapNode, line: line, fields: map[string]*node{}}
			for dec.More() {
				keyTok, err := dec.Token()
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %v", file, lineAt(dec.InputOffset()), err)
				}
				key, ok := keyTok.(string)
				if !ok {
					return nil, fmt.Errorf("%s:%d: object key is not a string", file, lineAt(dec.InputOffset()))
				}
				if _, dup := out.fields[key]; dup {
					return nil, fmt.Errorf("%s:%d: duplicate key %q", file, lineAt(dec.InputOffset()), key)
				}
				val, err := jsonValue(dec, file, lineAt)
				if err != nil {
					return nil, err
				}
				out.keys = append(out.keys, key)
				out.fields[key] = val
			}
			if _, err := dec.Token(); err != nil { // consume '}'
				return nil, fmt.Errorf("%s:%d: %v", file, lineAt(dec.InputOffset()), err)
			}
			return out, nil
		case '[':
			out := &node{kind: seqNode, line: line}
			for dec.More() {
				item, err := jsonValue(dec, file, lineAt)
				if err != nil {
					return nil, err
				}
				out.items = append(out.items, item)
			}
			if _, err := dec.Token(); err != nil { // consume ']'
				return nil, fmt.Errorf("%s:%d: %v", file, lineAt(dec.InputOffset()), err)
			}
			return out, nil
		}
		return nil, fmt.Errorf("%s:%d: unexpected delimiter %v", file, line, t)
	case string:
		return &node{kind: scalarNode, line: line, scalar: t, quoted: true}, nil
	case json.Number:
		return &node{kind: scalarNode, line: line, scalar: t.String()}, nil
	case bool:
		return &node{kind: scalarNode, line: line, scalar: strconv.FormatBool(t)}, nil
	case nil:
		return &node{kind: scalarNode, line: line, scalar: ""}, nil
	}
	return nil, fmt.Errorf("%s:%d: unexpected token %v", file, line, tok)
}
