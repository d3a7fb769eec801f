package extract

import (
	"sync"
	"testing"
)

// TestConcurrentExtractPage proves a Processor is immutable after
// NewProcessor: ExtractPage is safe from many goroutines at once (run
// under -race). Every goroutine must also see identical output —
// concurrent evaluation shares only immutable state.
func TestConcurrentExtractPage(t *testing.T) {
	repo := figure5Repo(t)
	p, err := NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	pages := moviePages()

	want := make([]string, len(pages))
	for i, page := range pages {
		el, _ := p.ExtractPage(page)
		want[i] = el.XMLString()
	}

	const goroutines = 16
	const rounds = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				idx := (g + i) % len(pages)
				el, _ := p.ExtractPage(pages[idx])
				if got := el.XMLString(); got != want[idx] {
					t.Errorf("goroutine %d: page %d output diverged", g, idx)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentExtractCluster exercises the cluster-level entry point
// under concurrency as well.
func TestConcurrentExtractCluster(t *testing.T) {
	repo := figure5Repo(t)
	p, err := NewProcessor(repo)
	if err != nil {
		t.Fatal(err)
	}
	pages := moviePages()
	ref, _ := p.ExtractCluster(pages)
	want := ref.XMLString()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			doc, _ := p.ExtractCluster(pages)
			if doc.XMLString() != want {
				t.Error("concurrent ExtractCluster output diverged")
			}
		}()
	}
	wg.Wait()
}
