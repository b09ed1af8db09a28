// Command dead is the fixture of TestNoDeadDeclarationsFixture: one
// declaration per rule of the dead-declaration scan.
package main

import "fmt"

func main() {
	fmt.Println(Total([]Shape{Square{side: 2}}), Called())
}

// Shape is a named interface: the methods that implement it are used
// through it.
type Shape interface{ Area() float64 }

// Total is used by main.
func Total(shapes []Shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

// Square is used by main.
type Square struct{ side float64 }

// Area is never named outside this declaration, but it implements
// Shape: not flagged.
func (s Square) Area() float64 { return s.side * s.side }

// String implements fmt.Stringer from a direct import: not flagged.
func (s Square) String() string { return fmt.Sprint(s.side) }

// OnlyTested is used only by fixture_test.go: flagged.
func OnlyTested() int { return 1 }

// orphan is named only in its own declaration, by its methods and by a
// blank assertion: flagged. Its method implements Shape.
type orphan struct{ next *orphan }

var _ Shape = (*orphan)(nil)

func (o *orphan) Area() float64 {
	if o.next != nil {
		return o.next.Area()
	}
	return 0
}

// Seam is used only by tests and kept as a test seam: not flagged.
func Seam() int { return 2 }

// Public is kept as public API, but this is not the root package:
// flagged, and so is its keep-list line.
func Public() int { return 3 }

// Called is kept as a test seam, but main uses it: a stale line.
func Called() int { return 4 }
