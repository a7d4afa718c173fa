package lts

import (
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// residentPages counts the file's pages that are in the page cache, by
// mincore over a read-only mapping (mapping alone faults nothing in).
func residentPages(t *testing.T, path string) (resident, total int) {
	t.Helper()
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		t.Fatal(err)
	}
	m, err := syscall.Mmap(int(fh.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(m)
	vec := make([]byte, (len(m)+os.Getpagesize()-1)/os.Getpagesize())
	if _, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(&m[0])), uintptr(len(m)), uintptr(unsafe.Pointer(&vec[0]))); errno != 0 {
		t.Skipf("mincore: %v", errno)
	}
	for _, v := range vec {
		resident += int(v & 1)
	}
	return resident, len(vec)
}

// TestFSWriteDropsChunkFromPageCache: a chunk is write-once cold data, so
// once Write has made it durable its pages should not stay cached. The
// advice is best-effort, hence the tolerant threshold; a filesystem whose
// pages are the data (tmpfs) ignores it and skips.
func TestFSWriteDropsChunkFromPageCache(t *testing.T) {
	dir := t.TempDir()
	var sfs syscall.Statfs_t
	const tmpfsMagic = 0x01021994
	if err := syscall.Statfs(dir, &sfs); err == nil && sfs.Type == tmpfsMagic {
		t.Skip("tmpfs keeps its pages: fadvise(DONTNEED) is a no-op there")
	}
	s, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create("seg/chunk-0"); err != nil {
		t.Fatal(err)
	}
	// Unaligned pieces: every write starts and ends inside a page, so the
	// advice has a partial page to keep and a completed one to drop.
	piece := make([]byte, 1<<20+123)
	for i := range piece {
		piece[i] = byte(i)
	}
	for i := 0; i < 4; i++ {
		if err := s.Write("seg/chunk-0", int64(i*len(piece)), piece); err != nil {
			t.Fatal(err)
		}
	}
	resident, total := residentPages(t, s.path("seg/chunk-0"))
	t.Logf("%d of %d pages resident after 4 x (1 MiB + 123 B) Write", resident, total)
	if resident > total/4 {
		t.Fatalf("%d of %d pages still resident after a durable Write; want at most a quarter", resident, total)
	}
}
