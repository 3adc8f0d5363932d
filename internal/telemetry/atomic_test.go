package telemetry

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// dirEntries lists the names in dir, so a test can assert no temp file was
// left behind.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	es, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range es {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteFileAtomicPublishesOrLeavesUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	write := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFileAtomic(path, write("first\n")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the writer's error, got %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "first\n" {
		t.Fatalf("failed write replaced the destination: %q", got)
	}
	if names := dirEntries(t, dir); len(names) != 1 {
		t.Fatalf("temp files left behind: %v", names)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x"), write("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestAtomicFileStickyWriteErrorAndAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cap")
	f, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	f.tmp.Close() // the next write fails underneath the writer
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write to a closed temp file succeeded")
	}
	if _, err := f.Write([]byte("y")); err == nil {
		t.Fatal("write error was not sticky")
	}
	if err := f.Close(); err == nil {
		t.Fatal("Close published after a failed write")
	}
	if err := f.Close(); err == nil {
		t.Fatal("second Close forgot the write error")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("destination created after a failed write: %v", err)
	}

	g, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	g.Write([]byte("discarded"))
	g.Abort()
	g.Abort() // no-op
	if names := dirEntries(t, dir); len(names) != 0 {
		t.Fatalf("Abort left files behind: %v", names)
	}
}

func TestAtomicFileRenameFailureCleansUp(t *testing.T) {
	dir := t.TempDir()
	// A non-empty directory at the destination makes the final rename fail.
	dest := filepath.Join(dir, "dest")
	if err := os.MkdirAll(filepath.Join(dest, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := CreateAtomic(dest)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("data"))
	if err := f.Close(); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if names := dirEntries(t, dir); len(names) != 1 || names[0] != "dest" {
		t.Fatalf("temp file left behind: %v", names)
	}
}

func TestAtomicSinkNumbersDumps(t *testing.T) {
	dir := t.TempDir()
	sink := AtomicSink(func(dump int) string {
		return filepath.Join(dir, "dump"+string(rune('0'+dump)))
	})
	for i := 0; i < 2; i++ {
		w, err := sink()
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(w, "ev\n")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	names := dirEntries(t, dir)
	if len(names) != 2 || names[0] != "dump1" || names[1] != "dump2" {
		t.Fatalf("dumps %v, want [dump1 dump2]", names)
	}
}
