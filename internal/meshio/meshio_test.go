package meshio

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"treecode/internal/mesh"
	"treecode/internal/vec"
)

func TestRoundTrip(t *testing.T) {
	orig := mesh.Sphere(2, 1.5, vec.V3{X: 1})
	var buf bytes.Buffer
	if err := WriteOFF(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadOFF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVerts() != orig.NumVerts() || back.NumTris() != orig.NumTris() {
		t.Fatalf("counts changed: %d/%d vs %d/%d",
			back.NumVerts(), back.NumTris(), orig.NumVerts(), orig.NumTris())
	}
	for i := range orig.Verts {
		if orig.Verts[i].Dist(back.Verts[i]) > 1e-15 {
			t.Fatalf("vertex %d changed", i)
		}
	}
	for i := range orig.Tris {
		if orig.Tris[i] != back.Tris[i] {
			t.Fatalf("triangle %d changed", i)
		}
	}
}

func TestReadWithCommentsAndBlankLines(t *testing.T) {
	src := `OFF
# a comment
3 1 0

0 0 0   # origin
1 0 0
0 1 0
3 0 1 2
`
	m, err := ReadOFF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumVerts() != 3 || m.NumTris() != 1 {
		t.Fatalf("parsed %d/%d", m.NumVerts(), m.NumTris())
	}
}

func TestReadHeaderlessOFF(t *testing.T) {
	// Some files skip the "OFF" keyword.
	src := "3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
	m, err := ReadOFF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTris() != 1 {
		t.Fatal("headerless parse failed")
	}
}

func TestQuadFanTriangulation(t *testing.T) {
	src := `OFF
4 1 0
0 0 0
1 0 0
1 1 0.1
0 1 0
4 0 1 2 3
`
	m, err := ReadOFF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTris() != 2 {
		t.Fatalf("quad should become 2 triangles, got %d", m.NumTris())
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"only header":      "OFF\n",
		"bad counts":       "OFF\nx y z\n",
		"missing vertices": "OFF\n3 1 0\n0 0 0\n",
		"bad vertex":       "OFF\n1 0 0\na b c\n",
		"bad face index":   "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99\n",
		"degenerate face":  "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n",
		"short face":       "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n",
	}
	for name, src := range cases {
		if _, err := ReadOFF(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestReadRejectsHostileInput: a vertex count far past the input's length
// fails on the missing lines instead of preallocating it, and non-finite
// coordinates are rejected.
func TestReadRejectsHostileInput(t *testing.T) {
	for _, in := range []string{
		"OFF\n100000000000000 0 0\n",
		"OFF\n3 1 0\nNaN 0 0\n1 0 0\n0 1 0\n3 0 1 2\n",
		"OFF\n3 1 0\n0 0 0\n1 -Inf 0\n0 1 0\n3 0 1 2\n",
		"OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n9223372036854775807 0 1 2\n",
	} {
		if _, err := ReadOFF(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

// FuzzReadOFF: ReadOFF never panics, and any mesh it accepts has finite
// vertices and in-range triangle indices, and survives a write/read round
// trip with its counts intact.
func FuzzReadOFF(f *testing.F) {
	f.Add("OFF\n100000000000000 0 0\n")
	f.Add("OFF\n3 1 0\nNaN 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
	f.Add("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
	f.Add("3 1 0\n# comment\n0 0 0\n1 0 0\n0 1 0\n\n3 0 1 2\n")
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadOFF(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, v := range m.Verts {
			for _, x := range []float64{v.X, v.Y, v.Z} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("vertex %d non-finite: %v", i, v)
				}
			}
		}
		for i, tri := range m.Tris {
			for _, k := range tri {
				if k < 0 || k >= len(m.Verts) {
					t.Fatalf("triangle %d index %d out of range", i, k)
				}
			}
		}
		var buf bytes.Buffer
		if err := WriteOFF(&buf, m); err != nil {
			t.Fatal(err)
		}
		back, err := ReadOFF(&buf)
		if err != nil {
			t.Fatalf("re-reading a written mesh: %v", err)
		}
		if back.NumVerts() != m.NumVerts() || back.NumTris() != m.NumTris() {
			t.Fatalf("round trip changed counts")
		}
	})
}
