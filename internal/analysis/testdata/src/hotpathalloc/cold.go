package hot

// Drain is a second annotated root exercising the coldpath boundary and
// //lint:allow suppression.
//
//lint:hotpath
func Drain(keys []uint64) {
	slowPath(keys) // boundary: slowPath's allocations stay unflagged
	//lint:allow hotpathalloc fixture demonstrates a justified suppression
	suppressed := new(int)
	Sink = suppressed
	//lint:allow hotpathalloc
	bare := new(int) // want: bare allow (no reason) suppresses nothing
	Sink = bare
}

// slowPath allocates freely: it is the explicit cold side.
//
//lint:coldpath
func slowPath(keys []uint64) {
	m := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	Sink = m
}

// pool is generic: Drain2 calls a method of an instantiation, and the
// walk must follow it to the declared body.
type pool[T any] struct{ free []*T }

func (p *pool[T]) get() *T {
	return new(T) // want: reached through pool[int].get
}

var ints pool[int]

// Drain2 reaches an allocation through a generic method.
//
//lint:hotpath
func Drain2() {
	Sink = ints.get()
}
