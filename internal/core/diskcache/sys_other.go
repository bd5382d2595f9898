//go:build !linux && !darwin

package diskcache

import (
	"io"
	"os"
)

// readFile reads the file at path into buf, growing it as needed. Linux
// and Darwin read below os.File (sys_unix.go).
func readFile(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// lstat reports the size and modification time (Unix nanoseconds) of the
// file at path, not following a symbolic link, and whether it is a
// directory.
func lstat(path string) (size, mtime int64, dir bool, err error) {
	info, err := os.Lstat(path)
	if err != nil {
		return 0, 0, false, err
	}
	return info.Size(), info.ModTime().UnixNano(), info.IsDir(), nil
}
