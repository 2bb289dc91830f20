// Package hot is a seeded-bad fixture for the hotpathalloc analyzer:
// every construct the analyzer forbids, reachable from one annotated
// root.
package hot

import "fmt"

// Sink keeps fixture results observable without unused-variable errors.
var Sink any

// Process is the annotated hot-path root; the allocations below and in
// the helpers it calls must all be flagged.
//
//lint:hotpath
func Process(keys []uint64, scratch []int) {
	buf := make([]byte, len(keys)) // want: unamortized make
	tmp := new(int)                // want: new allocates
	var local []int
	local = append(local, 1) // want: append grows a function-local slice
	m := map[uint64]int{}    // want: map literal
	m[keys[0]] = 1           // want: map write
	p := &point{x: 1}        // want: address of composite literal
	fmt.Sprintf("%d", tmp)   // want: fmt allocates
	Sink = buf
	Sink = local
	Sink = p
	helper(keys, scratch)
}

type point struct{ x int }

// helper is reachable from Process, so its allocations are hot too.
func helper(keys []uint64, scratch []int) {
	n := 0
	f := func() { n += len(keys) } // want: closure captures n
	f()
	scratch = append(scratch, n) // parameter append: exempt
	if cap(scratch) < len(keys) {
		scratch = make([]int, len(keys)) // cap-guarded make: exempt
	}
	Sink = scratch
	box(n) // want at the call: boxing an int into any
	assertions(Sink)
}

// box takes an interface parameter so callers box concrete values.
func box(v any) { Sink = v }

// runner is a capability a hot function might look up per call.
type runner interface{ run() }

func (p *point) run() {}

// assertions is reachable from Process: assertions and type switch cases to
// an interface type are flagged, those to a concrete type are not.
func assertions(v any) {
	if r, ok := v.(runner); ok { // want: assertion to an interface type
		r.run()
	}
	if p, ok := v.(*point); ok { // concrete: exempt
		p.run()
	}
	switch x := v.(type) {
	case *point: // concrete: exempt
		x.run()
	case runner, fmt.Stringer: // want both: interface cases
		Sink = x
	case nil: // exempt
	}
}
