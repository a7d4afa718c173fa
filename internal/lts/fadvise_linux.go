//go:build amd64 || arm64

package lts

import (
	"os"
	"syscall"
)

// posixFadvDontNeed is POSIX_FADV_DONTNEED, which package syscall lacks.
const posixFadvDontNeed = 4

// dropBehind tells the kernel that the whole pages of the (already synced)
// range will not be read again soon, so they can be reused at once. The
// trailing partial page stays: the next append completes it, and would
// have to read it back first. The 64-bit ports share one argument layout;
// 32-bit ones split the offsets and fall to the no-op twin.
func dropBehind(fh *os.File, offset, length int64) {
	mask := int64(os.Getpagesize() - 1)
	start, end := offset&^mask, (offset+length)&^mask
	if end > start { // a zero length would mean "to the end of the file"
		_, _, _ = syscall.Syscall6(syscall.SYS_FADVISE64, fh.Fd(), uintptr(start), uintptr(end-start), posixFadvDontNeed, 0, 0)
	}
}
