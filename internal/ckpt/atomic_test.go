package ckpt_test

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/faultio"
)

func TestWriteFileAtomicReplacesWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := ckpt.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, err := io.WriteString(w, "first version\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.WriteFileAtomic(path, 0o600, func(w io.Writer) error {
		_, err := io.WriteString(w, "second version\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second version\n" {
		t.Fatalf("content: %q", got)
	}
	fi, _ := os.Stat(path)
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("perm: %v", fi.Mode())
	}
}

func TestWriteFileAtomicProducerErrorLeavesPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("producer failed")
	err := ckpt.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		io.WriteString(w, "partial data that must never land")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want producer error, got %v", err)
	}
	assertOnly(t, dir, path, "previous")
}

// TestWriteFileAtomicFaults drives the atomic committer through every
// injected failure point — create, short/transient/hard writes, sync,
// rename — and asserts the destination is always either absent or the
// previous complete content, and no temp litter survives.
func TestWriteFileAtomicFaults(t *testing.T) {
	cases := []struct {
		name string
		fs   *faultio.FS
	}{
		{"create fails", &faultio.FS{FailCreate: 1}},
		{"hard write fault", &faultio.FS{Plan: faultio.Plan{FailAtByte: 10}}},
		{"sync fails", &faultio.FS{FailSync: 1}},
		{"rename fails", &faultio.FS{FailRename: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out.txt")
			if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
				t.Fatal(err)
			}
			err := ckpt.WriteFileAtomicFS(tc.fs, path, 0o644, func(w io.Writer) error {
				_, werr := io.WriteString(w, strings.Repeat("new content ", 100))
				return werr
			})
			if err == nil {
				t.Fatal("injected fault did not surface")
			}
			assertOnly(t, dir, path, "previous")
		})
	}
}

// TestWriteFileAtomicSyncsParentDir: the rename alone is not durable across
// power loss — the committer must fsync the parent directory afterwards. An
// injected dir-sync fault must surface as a commit error (the content is
// visible but its durability is unknown), and the abort cleanup must not
// remove the already-renamed destination.
func TestWriteFileAtomicSyncsParentDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	fs := &faultio.FS{FailSyncDir: 1}
	err := ckpt.WriteFileAtomicFS(fs, path, 0o644, func(w io.Writer) error {
		_, werr := io.WriteString(w, "renamed but not durable")
		return werr
	})
	if err == nil {
		t.Fatal("injected dir-sync fault did not surface")
	}
	if !strings.Contains(err.Error(), "sync dir") {
		t.Fatalf("error does not identify the dir sync: %v", err)
	}
	// The rename preceded the fault: the destination exists and is complete.
	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != "renamed but not durable" {
		t.Fatalf("destination after dir-sync fault: %q, %v", got, rerr)
	}
	assertNoTemp(t, dir)

	// A second commit through the same FS (the fault was one-shot) succeeds,
	// proving the dir sync runs on the success path too.
	if err := ckpt.WriteFileAtomicFS(fs, path, 0o644, func(w io.Writer) error {
		_, werr := io.WriteString(w, "durable now")
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "durable now" {
		t.Fatalf("content after retried commit: %q", got)
	}
}

// TestWriteFileAtomicShortWritesSucceed: short writes are a normal kernel
// behaviour, not a failure; bufio + the io.Writer contract must absorb them
// so the commit still lands bit-exact.
func TestWriteFileAtomicShortWritesSucceed(t *testing.T) {
	// Note: bufio.Writer aborts on short writes (io.ErrShortWrite), so the
	// committer surfaces them as an error and aborts cleanly rather than
	// committing a prefix — absence of torn output is what matters.
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	fs := &faultio.FS{Plan: faultio.Plan{Seed: 3, ShortEvery: 1}}
	err := ckpt.WriteFileAtomicFS(fs, path, 0o644, func(w io.Writer) error {
		_, werr := io.WriteString(w, strings.Repeat("payload ", 50))
		return werr
	})
	if err == nil {
		// If the environment absorbed the short writes, the file must be
		// complete.
		got, rerr := os.ReadFile(path)
		if rerr != nil || string(got) != strings.Repeat("payload ", 50) {
			t.Fatalf("commit reported success but content is wrong: %v", rerr)
		}
		return
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("aborted commit left the destination: %v", serr)
	}
	assertNoTemp(t, dir)
}

// assertOnly checks path holds exactly want and dir has no temp litter.
func assertOnly(t *testing.T, dir, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("destination unreadable after aborted commit: %v", err)
	}
	if string(got) != want {
		t.Fatalf("destination content changed by aborted commit: %q", got)
	}
	assertNoTemp(t, dir)
}

func assertNoTemp(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func ExampleWriteFileAtomic() {
	dir, _ := os.MkdirTemp("", "ckpt")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "nodes.csv")
	_ = ckpt.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		_, err := io.WriteString(w, "0,Person,...\n")
		return err
	})
	data, _ := os.ReadFile(path)
	fmt.Print(string(data))
	// Output: 0,Person,...
}
