package benchfmt

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadDoc: Decode never panics on a hostile document, and any
// document it accepts carries a treecode-bench schema, has the plan
// section on every steps entry from v5 on, and survives an encode/decode
// round trip unchanged. The corpus is seeded with the checked-in
// BENCH_treecode.json and small accepted and rejected documents.
func FuzzReadDoc(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_treecode.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{"schema":"treecode-bench/v4","steps":[{"dist":"plummer"}]}`))
	f.Add([]byte(`{"schema":"treecode-bench/v6","steps":[{"dist":"plummer"}]}`))
	f.Add([]byte(`{"schema":"something-else/v1"}`))
	f.Add([]byte(`{"schema":"treecode-bench/vX"}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		d, err := Decode(bytes.NewReader(doc))
		if err != nil {
			return
		}
		ver, err := strconv.Atoi(strings.TrimPrefix(d.Schema, "treecode-bench/v"))
		if !strings.HasPrefix(d.Schema, "treecode-bench/v") || err != nil {
			t.Fatalf("accepted schema %q", d.Schema)
		}
		if ver >= 5 {
			for i, s := range d.Steps {
				if s.Plan == nil {
					t.Fatalf("accepted v%d steps[%d] without a plan section", ver, i)
				}
			}
		}
		enc, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("re-encoding an accepted document: %v", err)
		}
		back, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-decoding an accepted document: %v", err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatal("encode/decode round trip changed the document")
		}
	})
}
