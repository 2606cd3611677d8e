GO ?= go
FUZZTIME ?= 5s

.PHONY: build test race vet fuzz check bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Short smoke of six decoder fuzzers (scripts/check.sh runs this);
# raise FUZZTIME for a longer soak (e.g. make fuzz FUZZTIME=2m).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/bgp/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAttributes$$' -fuzztime $(FUZZTIME) ./internal/bgp/wire
	$(GO) test -run '^$$' -fuzz '^FuzzReadAll$$' -fuzztime $(FUZZTIME) ./internal/bgp/mrt
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeArchive$$' -fuzztime $(FUZZTIME) ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzReadVRPCSV$$' -fuzztime $(FUZZTIME) ./internal/rpki
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/scenario

# The pre-merge gate: scripts/check.sh lists its legs.
check:
	FUZZTIME=$(FUZZTIME) sh scripts/check.sh

# The benchmark and its ledger: every workload, one JSON line each
# (bench/README.md).
bench:
	$(GO) run ./bench
