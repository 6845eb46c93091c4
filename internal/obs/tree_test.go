package obs

import (
	"bytes"
	"testing"
)

// fixtureTree is one forest exercising every TreeNode feature: attrs,
// events, nesting, an open span, and sibling roots.
func fixtureTree() []TreeNode {
	return []TreeNode{
		{
			Name:  "serve.footprint",
			DurNS: 12_345_000,
			Attrs: []TreeAttr{
				{Key: "route", Val: "footprint"},
				{Key: "status", Val: "200"},
			},
			Children: []TreeNode{
				{
					Name:  "kde.estimate",
					DurNS: 9_000_000,
					Attrs: []TreeAttr{{Key: "samples", Val: "300"}},
					Events: []TreeEvent{
						{Name: "cache_miss", AtNS: 1_000_000},
					},
					Children: []TreeNode{
						{Name: "blur_horizontal", DurNS: 4_000_000},
						{Name: "blur_vertical", DurNS: 3_500_000},
					},
				},
			},
		},
		{Name: "still.open", DurNS: -1},
	}
}

// TestGoldenTreeText pins the text rendering of the shared span-tree
// encoder byte-for-byte: padding, (open) markers, [k=v] attrs, and
// "@ event +offset" lines.
func TestGoldenTreeText(t *testing.T) {
	var b bytes.Buffer
	if err := WriteTree(&b, fixtureTree()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tree.txt", b.Bytes())
}

// TestGoldenTreeJSON pins the JSON rendering — the exact bytes
// /debug/trace/{id}, the flight recorder listing, and eyeballpipe
// -trace-out share via EncodeJSON.
func TestGoldenTreeJSON(t *testing.T) {
	var b bytes.Buffer
	if err := EncodeJSON(&b, fixtureTree()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tree.json", b.Bytes())
}

// TestTreeRendersAreStable renders the fixture twice through each
// encoder and requires byte equality.
func TestTreeRendersAreStable(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteTree(&a, fixtureTree()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTree(&b, fixtureTree()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two text renders of the same tree differ")
	}
	a.Reset()
	b.Reset()
	if err := EncodeJSON(&a, fixtureTree()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeJSON(&b, fixtureTree()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two JSON renders of the same tree differ")
	}
}
