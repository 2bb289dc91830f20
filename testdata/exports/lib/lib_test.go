package lib

import "testing"

// The check reads non-test files only: these uses do not count.
func TestLib(t *testing.T) {
	if TestOnly()+Countdown(3)+(Square{1}).Perimeter() != 5 || (Orphan{}) != (Orphan{}) {
		t.Fatal("lib")
	}
}
