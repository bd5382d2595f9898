//go:build linux || darwin

package diskcache

import "syscall"

// readFile reads the file at path into buf, growing it as needed: the
// loop of os.ReadFile on a bare descriptor, without an *os.File (and its
// poller registration), an fstat or a fresh buffer.
func readFile(path string, buf []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return buf, err
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return buf, err
		}
		if n == 0 {
			return buf, nil
		}
		buf = buf[:len(buf)+n]
	}
}

// lstat reports the size and modification time (Unix nanoseconds) of the
// file at path, not following a symbolic link, and whether it is a
// directory; it allocates nothing but path's C string.
func lstat(path string) (size, mtime int64, dir bool, err error) {
	var st syscall.Stat_t
	if err := syscall.Lstat(path, &st); err != nil {
		return 0, 0, false, err
	}
	return st.Size, mtimeNanos(&st), st.Mode&syscall.S_IFMT == syscall.S_IFDIR, nil
}
