package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
)

// crashPoint, when non-nil, runs after the temp file is durable but
// before the rename publishes it. Tests set it to simulate a process
// crash at the worst moment and assert that readers never observe a
// torn artifact. Always nil in production.
var crashPoint func()

// WriteFile publishes the rendered snapshot at path, mode 0644, so that
// a reader — a concurrent eyeballserve reload, or anyone after a crash —
// sees either the complete previous artifact or the complete new one,
// never a prefix of the new bytes.
//
// The sequence is the standard crash-safe publish: render to a temp
// file in the destination directory, fsync the file, rename it over
// path (atomic within a filesystem), then fsync the directory so the
// rename itself is durable. A crash before the rename leaves the old
// artifact untouched (plus a stray .tmp file, which the next write
// ignores); a crash after it leaves the new artifact fully in place.
func WriteFile(path string, s *Snapshot) error {
	return WriteFileAtomicBytes(path, Encode(s))
}

// WriteFileAtomicBytes is WriteFile for pre-rendered bytes —
// the eyeballpipe publish path, which mangles the encoded artifact
// through the fault plan before it hits disk, uses this form.
func WriteFileAtomicBytes(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp artifact: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op once the rename has consumed it

	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: writing temp artifact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: syncing temp artifact: %w", err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: setting artifact mode: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: closing temp artifact: %w", err)
	}

	if crashPoint != nil {
		crashPoint()
	}

	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("snapshot: publishing artifact: %w", err)
	}
	// Make the rename durable: fsync the containing directory. Some
	// filesystems reject directory fsync; the rename is still atomic
	// for live readers, so that is not fatal.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
