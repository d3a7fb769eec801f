package main

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/rule"
)

// Boot benches: exec-free halves of the served-path benchmark's setup_s.
// Both boot the daemon's newServer over two bench-sized repositories:
// movies and books, rules induced from a 10-page sample, routing
// signatures over 1024 pages each (about 2,200 keywords, 120–134 KB of
// JSON apiece).

var benchRepos struct {
	once  sync.Once
	dir   string
	specs []string
	err   error
}

// benchRepoSpecs writes the two repositories once per process and
// returns their -rules specs.
func benchRepoSpecs(b *testing.B) []string {
	b.Helper()
	benchRepos.once.Do(func() {
		benchRepos.dir, benchRepos.err = os.MkdirTemp("", "extractd-boot-bench")
		clusters := map[string]*corpus.Cluster{
			"movies": corpus.GenerateMovies(corpus.DefaultMovieProfile(17, 1024)),
			"books":  corpus.GenerateBooks(corpus.DefaultBookProfile(18, 1024)),
		}
		for _, name := range []string{"movies", "books"} {
			if benchRepos.err != nil {
				return
			}
			cl := clusters[name]
			sample, _ := cl.RepresentativeSplit(10)
			repo := rule.NewRepository(cl.Name)
			builder := &core.Builder{Sample: sample, Oracle: cl.Oracle()}
			if _, benchRepos.err = builder.BuildAll(repo, cl.ComponentNames()); benchRepos.err != nil {
				return
			}
			infos := make([]cluster.PageInfo, len(cl.Pages))
			for i, p := range cl.Pages {
				infos[i] = cluster.PageInfo{URI: p.URI, Doc: p.Doc}
			}
			repo.Signature = cluster.SignatureOf(infos)
			path := filepath.Join(benchRepos.dir, name+".json")
			benchRepos.err = repo.Save(path)
			benchRepos.specs = append(benchRepos.specs, name+"="+path)
		}
	})
	if benchRepos.err != nil {
		b.Fatal(benchRepos.err)
	}
	return benchRepos.specs
}

// bootOptions are the served-path benchmark's daemon flags over dataDir.
func bootOptions(b *testing.B, dataDir string) options {
	b.Helper()
	args := []string{"-addr", "127.0.0.1:0", "-data-dir", dataDir, "-fsync", "interval"}
	for _, spec := range benchRepoSpecs(b) {
		args = append(args, "-rules", spec)
	}
	opts, err := parseOptions(args, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	return opts
}

// boot times newServer over dataDir, then releases the server untimed
// — with its final compaction when final is set, as a clean shutdown
// does, or with the WAL left as a crash leaves it.
func boot(b *testing.B, dataDir string, final bool) {
	b.Helper()
	opts := bootOptions(b, dataDir)
	b.StartTimer()
	srv, err := newServer(opts)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if srv.Router.Len() != 2 {
		b.Fatalf("booted with %d routable repositories, want 2", srv.Router.Len())
	}
	srv.Close()
	if final {
		shutdown(srv, opts.log)
	} else if err := srv.Store.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBootPreload: a fresh data directory, newServer and the -rules
// preload of both repositories.
func BenchmarkBootPreload(b *testing.B) {
	benchRepoSpecs(b)
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		boot(b, b.TempDir(), true)
	}
}

// BenchmarkBootRestart: a second boot over the WAL the first boot wrote —
// replay of both repository and router records, boot compaction, and a
// preload that finds both files unchanged.
func BenchmarkBootRestart(b *testing.B) {
	first := b.TempDir()
	b.StopTimer()
	boot(b, first, false)
	var files [][2]string
	for _, name := range []string{"wal.log", "snapshot.json"} {
		data, err := os.ReadFile(filepath.Join(first, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		files = append(files, [2]string{name, string(data)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		for _, f := range files {
			if err := os.WriteFile(filepath.Join(dir, f[0]), []byte(f[1]), 0o644); err != nil {
				b.Fatal(err)
			}
		}
		boot(b, dir, false)
	}
}
