package telemetry

import (
	"os"
	"path/filepath"
	"testing"
)

func sampleResult(key string) SessionResult {
	return SessionResult{
		Key:        key,
		Session:    "s-1",
		SimNs:      5_000_000,
		Instret:    50_000,
		Exited:     true,
		Violations: 2,
		Detected:   true,
		Samples:    7,
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	st := NewMemStore()
	if _, ok := st.Get("k"); ok {
		t.Fatal("empty store returned a result")
	}
	want := sampleResult("k")
	if err := st.Put("k", want); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get("k")
	if !ok || got != want {
		t.Fatalf("Get = %+v/%v, want %+v", got, ok, want)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleResult("abc123")
	if err := st.Put("abc123", want); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}

	// A fresh store over the same directory serves the old result from disk.
	st2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.Get("abc123")
	if !ok || got != want {
		t.Fatalf("reopened Get = %+v/%v, want %+v", got, ok, want)
	}
	if _, ok := st2.Get("missing"); ok {
		t.Fatal("reopened store invented a result")
	}
}

func TestFileStoreSanitizesKeys(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	evil := "../../etc/passwd"
	if err := st.Put(evil, sampleResult(evil)); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].IsDir() {
		t.Fatalf("store wrote outside its dir: %v", ents)
	}
	if _, ok := st.Get(evil); !ok {
		t.Fatal("sanitized key no longer resolves")
	}
}

func TestCacheable(t *testing.T) {
	cases := []struct {
		r    SessionResult
		want bool
	}{
		{SessionResult{Key: "k"}, true},
		{SessionResult{}, false},
		{SessionResult{Key: "k", Canceled: true}, false},
		{SessionResult{Key: "k", TimedOut: true}, false},
		{SessionResult{Key: "k", Panicked: true}, false},
	}
	for _, c := range cases {
		if got := c.r.cacheable(); got != c.want {
			t.Errorf("cacheable(%+v) = %v, want %v", c.r, got, c.want)
		}
	}
}
