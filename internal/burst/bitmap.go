// Package burst provides the small fixed-size index sets the batched
// datapath sweeps: a burst of keys enters the tier pipeline with every bit
// set in a miss bitmap, and each tier pass clears the bits it resolves.
// Inverting the tier walk around this bitmap is what lets the megaflow
// TSS visit each subtable once per *burst* instead of once per packet —
// the dpcls_lookup structure of the OVS userspace datapath.
package burst

import "math/bits"

// Bitmap is a set of indices in [0, Len()). The zero value is an empty
// bitmap of length 0; use Reset to size it for a burst. Bitmaps are
// reused across bursts without reallocating.
type Bitmap struct {
	words []uint64
	n     int
	parts []Bitmap // Deal's result, reused across calls
}

// Reset sizes the bitmap for n indices and clears every bit.
func (b *Bitmap) Reset(n int) {
	nw := (n + 63) / 64
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	}
	b.words = b.words[:nw]
	for i := range b.words {
		b.words[i] = 0
	}
	b.n = n
}

// Len returns the index capacity set by Reset.
func (b *Bitmap) Len() int { return b.n }

// Set adds index i to the set.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Clear removes index i from the set.
func (b *Bitmap) Clear(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// Test reports whether index i is in the set.
func (b *Bitmap) Test(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// SetAll adds every index in [0, Len()).
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if tail := b.n & 63; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = (1 << uint(tail)) - 1
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bits are set.
func (b *Bitmap) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// CopyFrom makes b an exact copy of o, reusing b's storage.
func (b *Bitmap) CopyFrom(o *Bitmap) {
	if cap(b.words) < len(o.words) {
		b.words = make([]uint64, len(o.words))
	}
	b.words = b.words[:len(o.words)]
	copy(b.words, o.words)
	b.n = o.n
}

// Or adds every index set in o, a bitmap of the same length, to b.
func (b *Bitmap) Or(o *Bitmap) {
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// Deal moves every index of b into one of mask+1 bitmaps of b's length —
// index i goes to part (keys[i]>>shift)&mask — and returns them, leaving b
// empty. The sharded caches deal a burst's miss bitmap out this way, by
// the shard bits of each key's flow hash. The parts are scratch b owns,
// valid until the next Deal on b: they live with the goroutine that owns
// the burst because the caches that consume them are shared.
func (b *Bitmap) Deal(keys []uint64, shift uint, mask uint64) []Bitmap {
	np := int(mask) + 1
	if cap(b.parts) < np {
		b.parts = make([]Bitmap, np)
	}
	parts := b.parts[:np]
	for i := range parts {
		parts[i].Reset(b.n)
	}
	for wi, w := range b.words {
		b.words[wi] = 0
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			parts[(keys[i]>>shift)&mask].Set(i)
		}
	}
	return parts
}

// Words exposes the backing words (64 indices per word, LSB first) for
// allocation-free iteration in hot sweeps. Callers may clear bits via
// Clear while iterating a snapshot word, or store whole words (a word's
// bits assembled in a register and written once), but must not resize
// the bitmap.
func (b *Bitmap) Words() []uint64 { return b.words }

// ForEach calls fn for every set index in ascending order. fn may clear
// the current or any earlier index; clearing later indices mid-iteration
// skips them, and setting new bits mid-iteration is not supported.
func (b *Bitmap) ForEach(fn func(i int)) {
	for wi := range b.words {
		w := b.words[wi]
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if b.words[wi]&(1<<uint(i&63)) != 0 { // still set?
				fn(i)
			}
		}
	}
}

// AndNot returns the indices set in a but not in o, appended to dst.
// Used to enumerate the keys a tier pass just resolved (prev &^ miss).
func (b *Bitmap) AndNot(o *Bitmap, dst []int) []int {
	for wi := range b.words {
		w := b.words[wi]
		if wi < len(o.words) {
			w &^= o.words[wi]
		}
		for w != 0 {
			dst = append(dst, wi<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}
