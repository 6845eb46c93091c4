package snapshot

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestWriteFileAtomicRoundTrip: WriteFile's happy path publishes a
// readable artifact with the expected bytes and mode, and leaves no temp
// debris.
func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.snap")
	snap := testSnapshot(t)
	if err := WriteFile(path, snap); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading published artifact: %v", err)
	}
	if !bytes.Equal(got, Encode(snap)) {
		t.Error("published bytes differ from Encode output")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Errorf("artifact mode %v (err %v), want 0644", fi.Mode().Perm(), err)
	}
	assertNoTempFiles(t, dir)
}

// TestWriteFileAtomicTornWrite simulates a crash between rendering the
// temp file and the rename: the destination must still hold the old,
// fully valid artifact — never a prefix of the new one.
func TestWriteFileAtomicTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.snap")
	old := testSnapshot(t)
	old.Meta.Label = "old-generation"
	if err := WriteFile(path, old); err != nil {
		t.Fatalf("publishing old artifact: %v", err)
	}
	oldBytes := Encode(old)

	next := testSnapshot(t)
	next.Meta.Label = "next-generation"

	type crashed struct{}
	crashPoint = func() { panic(crashed{}) }
	defer func() { crashPoint = nil }()
	func() {
		defer func() {
			if r := recover(); r != (crashed{}) {
				t.Fatalf("unexpected panic %v", r)
			}
		}()
		_ = WriteFile(path, next)
		t.Error("crash point never fired")
	}()

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading artifact after simulated crash: %v", err)
	}
	if !bytes.Equal(got, oldBytes) {
		t.Fatal("artifact changed despite crashing before the rename")
	}
	if snap, err := ReadFile(path); err != nil {
		t.Fatalf("old artifact unreadable after crash: %v", err)
	} else if snap.Meta.Label != "old-generation" {
		t.Errorf("label %q, want the pre-crash artifact", snap.Meta.Label)
	}

	// Recovery: the next publish succeeds and replaces the artifact
	// whole, with the stray temp file from the crash left inert.
	crashPoint = nil
	if err := WriteFile(path, next); err != nil {
		t.Fatalf("re-publish after crash: %v", err)
	}
	if snap, err := ReadFile(path); err != nil || snap.Meta.Label != "next-generation" {
		t.Fatalf("re-published artifact: label %v err %v", snap.Meta.Label, err)
	}
}

// TestWriteFileAtomicNeverTorn hammers one path with writers while a
// reader decodes continuously: every read must yield a complete,
// checksum-valid artifact. With plain os.WriteFile this fails almost
// immediately (the reader catches a truncated file mid-write).
func TestWriteFileAtomicNeverTorn(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.snap")
	a := testSnapshot(t)
	a.Meta.Label = "gen-a"
	b := testSnapshot(t)
	b.Meta.Label = "gen-b-with-a-longer-label-so-sizes-differ"
	if err := WriteFile(path, a); err != nil {
		t.Fatalf("seeding artifact: %v", err)
	}

	const writes = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			s := a
			if i%2 == 1 {
				s = b
			}
			if err := WriteFile(path, s); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
	}()

	writerDone := waitDone(&wg)
	reads := 0
	for done := false; !done; {
		select {
		case <-writerDone:
			done = true
		default:
			snap, err := ReadFile(path)
			if err != nil {
				t.Fatalf("read %d observed a torn artifact: %v", reads, err)
			}
			if l := snap.Meta.Label; l != "gen-a" && l != "gen-b-with-a-longer-label-so-sizes-differ" {
				t.Fatalf("read %d observed an unknown artifact %q", reads, l)
			}
			reads++
		}
	}
	if reads == 0 {
		t.Log("writer finished before any read completed; atomicity unexercised this run")
	}
	assertNoTempFiles(t, dir)
}

// TestWriteFileDelegatesToAtomic: WriteFile publishes through the
// crash-safe path (its crash point fires), so no caller is left on a
// torn-write path.
func TestWriteFileDelegatesToAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.snap")
	fired := false
	crashPoint = func() { fired = true }
	defer func() { crashPoint = nil }()
	if err := WriteFile(path, testSnapshot(t)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if !fired {
		t.Error("WriteFile did not route through the atomic publish path")
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if e.Name() != "out.snap" {
			t.Errorf("stray file after publish: %s", e.Name())
		}
	}
}

func waitDone(wg *sync.WaitGroup) <-chan struct{} {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	return ch
}
