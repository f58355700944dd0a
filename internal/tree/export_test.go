package tree

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"prophet/internal/counters"
)

func TestJSONRoundTrip(t *testing.T) {
	root := figure4()
	sec := root.TopLevelSections()[0]
	sec.Counters = &counters.Sample{Instructions: 1000, Cycles: 300, LLCMisses: 7}
	sec.Burden = map[int]float64{2: 1.2, 4: 1.4}
	sec.Children[0].Repeat = 2
	sec.Children[0].Children[0].Mem = MemTraits{Instructions: 5, LLCMisses: 1}

	data, err := json.Marshal(root)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Node
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !Equal(root, &back, 0) {
		t.Fatalf("round trip changed the tree:\n%s\nvs\n%s", root, &back)
	}
	bsec := back.TopLevelSections()[0]
	if bsec.Counters == nil || bsec.Counters.Instructions != 1000 || bsec.Counters.Cycles != 300 {
		t.Errorf("counters lost in round trip: %+v", bsec.Counters)
	}
	if bsec.Burden[2] != 1.2 || bsec.Burden[4] != 1.4 {
		t.Errorf("burden lost in round trip: %v", bsec.Burden)
	}
	if got := bsec.Children[0].Children[0].Mem; got != (MemTraits{Instructions: 5, LLCMisses: 1}) {
		t.Errorf("mem traits lost: %+v", got)
	}
}

func TestJSONDeterministic(t *testing.T) {
	root := figure4()
	root.TopLevelSections()[0].Burden = map[int]float64{12: 1.45, 2: 1.0, 8: 1.3}
	a, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("marshal not deterministic")
	}
	// Burden entries must be in ascending thread order.
	i2 := bytes.Index(a, []byte(`"threads":2`))
	i8 := bytes.Index(a, []byte(`"threads":8`))
	i12 := bytes.Index(a, []byte(`"threads":12`))
	if !(i2 < i8 && i8 < i12) {
		t.Fatalf("burden order not ascending: %d %d %d", i2, i8, i12)
	}
}

func TestUnmarshalRejectsUnknownKind(t *testing.T) {
	var n Node
	if err := json.Unmarshal([]byte(`{"kind":"Bogus"}`), &n); err == nil {
		t.Fatal("expected error for unknown kind")
	}
}

func TestWriteDOT(t *testing.T) {
	var buf bytes.Buffer
	if err := figure4().WriteDOT(&buf); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "digraph programtree {") || !strings.HasSuffix(strings.TrimSpace(s), "}") {
		t.Error("DOT output not a digraph")
	}
	if !strings.Contains(s, "->") {
		t.Error("DOT output has no edges")
	}
	if !strings.Contains(s, "Sec\\nloop2") {
		t.Errorf("DOT output missing nested section label:\n%s", s)
	}
}

func TestApproxBytesGrowsWithTree(t *testing.T) {
	small := NewRoot(NewSec("s", NewTask("t", NewU(1))))
	big := figure4()
	sb, bb := small.ApproxBytes(), big.ApproxBytes()
	if sb <= 0 || bb <= sb {
		t.Fatalf("ApproxBytes small=%d big=%d; want 0 < small < big", sb, bb)
	}
}

// TestJSONRefusesPipelineSection: trees written while pipeline-parallel
// sections existed may mark a Sec "pipeline": true. No engine runs such a
// section any more, so decoding refuses it with a malformed-tree error
// naming the node instead of loading it as an ordinary loop; a tree
// without the flag still loads, and encoding never writes it.
func TestJSONRefusesPipelineSection(t *testing.T) {
	const sec = `{"kind":"Sec","name":"stream"%s,"children":[{"kind":"Task","name":"it","children":[{"kind":"U","len":10},{"kind":"U","len":20}]}]}`
	doc := func(flag string) []byte {
		return []byte(`{"kind":"Root","children":[{"kind":"U","len":5},` + fmt.Sprintf(sec, flag) + `]}`)
	}
	var bad Node
	err := json.Unmarshal(doc(`,"pipeline":true`), &bad)
	if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), `"stream"`) {
		t.Fatalf("pipeline section: err = %v, want ErrMalformed naming \"stream\"", err)
	}
	var good Node
	if err := json.Unmarshal(doc(`,"pipeline":false`), &good); err != nil {
		t.Fatalf("plain section: %v", err)
	}
	if err := good.Validate(); err != nil || good.TotalLen() != 35 {
		t.Fatalf("plain section decoded wrong: err %v, len %d", err, good.TotalLen())
	}
	out, err := json.Marshal(&good)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out, []byte("pipeline")) {
		t.Fatalf("encoder wrote the retired flag: %s", out)
	}
}
