package lppm

import (
	"fmt"

	"mood/internal/geo"
	"mood/internal/mathx"
	"mood/internal/profile"
	"mood/internal/trace"
)

// KAnon is a generalisation mechanism in the k-anonymity tradition
// (Sweeney [31], NeverWalkAlone [1]): every published location is
// coarsened to the center of the smallest quadtree region that at least
// K distinct background users have visited. An attacker observing a
// published point therefore cannot narrow the visitor set below K
// users.
//
// It is not part of the paper's evaluated trio; MooD's §6 explicitly
// invites extending the portfolio with further state-of-the-art LPPMs,
// and the ablation benchmarks use KAnon for that experiment. Build it
// with NewKAnon — it needs background knowledge to know who visits
// where.
type KAnon struct {
	k    int
	proj *geo.Projector
	root *quadNode
}

var _ Mechanism = (*KAnon)(nil)

// DefaultK is the default anonymity set size.
const DefaultK = 5

// quadMinSize stops subdivision at ~city-block scale; below that,
// coordinates would identify buildings regardless of k.
const quadMinSize = 125.0

// quadNode is one square region of the quadtree. Children order:
// SW, SE, NW, NE.
type quadNode struct {
	cx, cy   float64 // center in projected meters
	half     float64 // half edge length
	visitors int     // distinct background users seen inside
	children *[4]*quadNode
}

// quadPoint is one background sample during construction.
type quadPoint struct {
	user int // dense user index
	x, y float64
}

// NewKAnon builds the mechanism from ps's background traces, the H
// HMC and the attacks share. k < 2 selects DefaultK.
func NewKAnon(k int, ps *profile.Set) (*KAnon, error) {
	background := ps.Background()
	if len(background) == 0 {
		return nil, fmt.Errorf("lppm: KAnon needs background traces")
	}
	if k < 2 {
		k = DefaultK
	}

	box := geo.EmptyBBox()
	var n int
	for _, t := range background {
		for _, r := range t.Records {
			box = box.Extend(r.Point())
		}
		n += t.Len()
	}
	if box.Empty() {
		return nil, fmt.Errorf("lppm: KAnon background has no records")
	}
	proj := geo.NewProjector(box.Center())

	pts := make([]quadPoint, 0, n)
	for ui, t := range background {
		for _, r := range t.Records {
			x, y := proj.ToXY(r.Point())
			pts = append(pts, quadPoint{user: ui, x: x, y: y})
		}
	}
	var half float64
	for _, p := range pts {
		half = maxAbs(half, p.x, p.y)
	}
	half++

	root := buildQuad(0, 0, half, pts, k, len(background))
	return &KAnon{k: k, proj: proj, root: root}, nil
}

// buildQuad recursively subdivides while the region still holds at
// least k distinct visitors and exceeds the minimum size.
func buildQuad(cx, cy, half float64, pts []quadPoint, k, numUsers int) *quadNode {
	node := &quadNode{cx: cx, cy: cy, half: half}
	node.visitors = distinctUsers(pts, numUsers)
	if node.visitors < k || half <= quadMinSize {
		return node
	}
	quads := [4][]quadPoint{}
	for _, p := range pts {
		quads[quadIndex(cx, cy, p.x, p.y)] = append(quads[quadIndex(cx, cy, p.x, p.y)], p)
	}
	q := half / 2
	node.children = &[4]*quadNode{
		buildQuad(cx-q, cy-q, q, quads[0], k, numUsers),
		buildQuad(cx+q, cy-q, q, quads[1], k, numUsers),
		buildQuad(cx-q, cy+q, q, quads[2], k, numUsers),
		buildQuad(cx+q, cy+q, q, quads[3], k, numUsers),
	}
	return node
}

func distinctUsers(pts []quadPoint, numUsers int) int {
	seen := make([]bool, numUsers)
	count := 0
	for _, p := range pts {
		if !seen[p.user] {
			seen[p.user] = true
			count++
		}
	}
	return count
}

func quadIndex(cx, cy, x, y float64) int {
	i := 0
	if x >= cx {
		i++
	}
	if y >= cy {
		i += 2
	}
	return i
}

// Name implements Mechanism.
func (*KAnon) Name() string { return "KAnon" }

// Obfuscate implements Mechanism: each record is replaced by the center
// of the deepest enclosing region with at least k background visitors.
func (a *KAnon) Obfuscate(_ *mathx.Rand, t trace.Trace) (trace.Trace, error) {
	if t.Empty() {
		return trace.Trace{}, ErrEmptyTrace
	}
	out := records(len(t.Records))
	for i, r := range t.Records {
		x, y := a.proj.ToXY(r.Point())
		node := a.locate(x, y)
		out[i] = trace.At(a.proj.ToPoint(node.cx, node.cy), r.TS)
	}
	return trace.Trace{User: t.User, Records: out}, nil
}

// locate returns the deepest node containing (x, y) whose visitor count
// still meets k; the root is the fallback for never-visited areas.
func (a *KAnon) locate(x, y float64) *quadNode {
	best := a.root
	n := a.root
	for n != nil {
		if n.visitors >= a.k {
			best = n
		}
		if n.children == nil {
			break
		}
		n = n.children[quadIndex(n.cx, n.cy, x, y)]
	}
	return best
}

func maxAbs(xs ...float64) float64 {
	var m float64
	for _, x := range xs {
		if x < 0 {
			x = -x
		}
		if x > m {
			m = x
		}
	}
	return m
}
