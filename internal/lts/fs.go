package lts

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// FS stores chunks as files under a root directory — the NFS-style
// deployment of the paper (Pravega used an EFS-backed NFS volume, §5.1).
type FS struct {
	root string
}

var _ ChunkStorage = (*FS)(nil)

// NewFS creates (if needed) and uses dir as the chunk root.
func NewFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lts: creating root: %w", err)
	}
	return &FS{root: dir}, nil
}

// path maps a chunk name to a file path, flattening separators so chunk
// names (which contain '/') stay within the root.
func (f *FS) path(name string) string {
	return filepath.Join(f.root, strings.ReplaceAll(name, "/", "__"))
}

// Create implements ChunkStorage.
func (f *FS) Create(name string) error {
	fh, err := os.OpenFile(f.path(name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return fmt.Errorf("%w: %s", ErrChunkExists, name)
		}
		return err
	}
	return fh.Close()
}

// Write implements ChunkStorage: it writes the parts in order, then syncs
// once.
func (f *FS) Write(name string, offset int64, data ...[]byte) error {
	fh, err := os.OpenFile(f.path(name), os.O_WRONLY, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s", ErrNoChunk, name)
		}
		return err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return err
	}
	if st.Size() != offset {
		return fmt.Errorf("%w: offset %d, length %d", ErrInvalidOffset, offset, st.Size())
	}
	at := offset
	for _, p := range data {
		if _, err := fh.WriteAt(p, at); err != nil {
			return err
		}
		at += int64(len(p))
	}
	if err := fh.Sync(); err != nil {
		return err
	}
	// Drop-behind: a chunk is write-once cold data and the tail is served
	// from the store's own block cache, so a page-cache copy has no reader.
	// Only clean pages can be dropped, hence after Sync; best-effort.
	dropBehind(fh, offset, at-offset)
	return nil
}

// Read implements ChunkStorage.
func (f *FS) Read(name string, offset int64, buf []byte) (int, error) {
	fh, err := os.Open(f.path(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, fmt.Errorf("%w: %s", ErrNoChunk, name)
		}
		return 0, err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return 0, err
	}
	if offset < 0 || offset > st.Size() {
		return 0, fmt.Errorf("%w: offset %d, length %d", ErrOutOfRange, offset, st.Size())
	}
	n, err := fh.ReadAt(buf, offset)
	if err != nil && n > 0 {
		err = nil // partial tail read is fine
	}
	if err != nil && offset == st.Size() {
		return 0, nil
	}
	return n, err
}

// Length implements ChunkStorage.
func (f *FS) Length(name string) (int64, error) {
	st, err := os.Stat(f.path(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, fmt.Errorf("%w: %s", ErrNoChunk, name)
		}
		return 0, err
	}
	return st.Size(), nil
}

// Delete implements ChunkStorage.
func (f *FS) Delete(name string) error {
	if err := os.Remove(f.path(name)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s", ErrNoChunk, name)
		}
		return err
	}
	return nil
}

// Exists implements ChunkStorage.
func (f *FS) Exists(name string) (bool, error) {
	_, err := os.Stat(f.path(name))
	if err == nil {
		return true, nil
	}
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return false, err
}
