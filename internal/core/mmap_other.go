//go:build !unix

package core

// mmapFile on platforms without the unix mmap syscall reads the file into
// one 8-aligned heap buffer. A mapped OpenSnapshot still works — same
// layout, same zero-parse open — but the pages are heap-resident rather
// than file-backed, and the release function just drops the reference.
func mmapFile(path string) ([]byte, func() error, error) {
	data, err := readAligned(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
