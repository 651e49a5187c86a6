package frame

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// ShardPath returns the sharded location of a content-addressed file:
// <root>/<first two hex digits of key>/<key><ext>. Two hex digits give
// 256 shards, keeping directory listings short at millions of entries.
func ShardPath(root, key, ext string) string {
	return filepath.Join(root, key[:2], key+ext)
}

// ShardFiles lists the files ShardPath lays out under root with the
// given extension, as paths in sorted order. Unreadable directories are
// skipped.
func ShardFiles(root, ext string) []string {
	names, _ := fs.Glob(os.DirFS(root), "??/*"+ext) // the pattern is always well-formed
	for i, name := range names {
		names[i] = filepath.Join(root, name)
	}
	return names
}

// WriteFile atomically replaces path with data: the bytes go to a temp
// file in path's directory (created if needed), optionally fsynced, then
// renamed into place. Readers see the old file or the whole new one,
// never a torn write, and a failed or killed writer leaves the old file
// intact; the temp file is removed on every error this process sees.
func WriteFile(path string, data []byte, sync bool) error {
	return writeAtomic(path, sync, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

func writeAtomic(path string, sync bool, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil && sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// Quarantine moves a defective file aside as path.corrupt, keeping it
// for postmortems, so the next lookup recomputes instead of re-reading
// it. If the rename fails (permissions, a concurrent removal) the file
// is removed instead: a defective file must never be served twice.
func Quarantine(path string) {
	if err := os.Rename(path, path+".corrupt"); err != nil {
		os.Remove(path)
	}
}
