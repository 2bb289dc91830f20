// Package lib seeds each case the exported-symbol check must tell apart.
package lib

import "fmt"

// Shape is the interface main uses Square as.
type Shape interface{ Area() int }

// Square is built by New.
type Square struct{ Side int }

// New is called by main.
func New(side int) Shape { return Square{side} }

// Area is reached only through Shape: not flagged.
func (s Square) Area() int { return s.Side * s.Side }

// String is reached only through fmt: not flagged.
func (s Square) String() string { return fmt.Sprint("square ", s.Side) }

// Perimeter is a method only tests call: flagged.
func (s Square) Perimeter() int { return 4 * s.Side }

// TestOnly is a function only tests call: flagged.
func TestOnly() int { return 1 }

// Countdown's only caller is itself: flagged.
func Countdown(n int) int {
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Orphan is a type only tests use: flagged.
type Orphan struct{}

// Kept has no caller but an allowlist entry with a reason: not flagged.
func Kept() int { return 2 }

// Stale has an allowlist entry, and main calls it: the entry is stale.
func Stale() int { return 3 }

// Unexplained has an allowlist entry with no reason.
func Unexplained() int { return 4 }
