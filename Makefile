# MDV build/test/benchmark driver.

GO ?= go

.PHONY: all build vet test test-race cover bench bench-quick bench-test figures examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Quick pass over every mdvbench figure at a tenth of the paper's rule bases.
bench-quick:
	$(GO) run ./cmd/mdvbench -fig all -scale small -reps 1 -batches 1,10

# Micro-benchmarks of the substrate (rdb, rdb/sql) and BenchmarkPublishDurable.
bench:
	$(GO) test -bench=. -benchmem ./internal/...

# bench/ is a nested module the root build and test never see: vet and test
# it so a deletion in internal/ that breaks its compile is caught here.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate the paper's figures (paper-scale rule bases; see
# cmd/mdvbench -h for scales and figure selection).
figures:
	$(GO) run ./cmd/mdvbench -fig all -reps 3

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/objectglobe
	$(GO) run ./examples/marketplace
	$(GO) run ./examples/federation

clean:
	$(GO) clean ./...
