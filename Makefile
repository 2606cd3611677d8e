GO ?= go
FUZZTIME ?= 5s

.PHONY: build test race vet fuzz check bench reach

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Short smoke of nine fuzzers: six decoders, the prefix table against a
# linear scan, and the prepared-key Ed25519 verifier and the batch signer
# against crypto/ed25519 (scripts/check.sh runs this);
# raise FUZZTIME for a longer soak (e.g. make fuzz FUZZTIME=2m).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/bgp/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAttributes$$' -fuzztime $(FUZZTIME) ./internal/bgp/wire
	$(GO) test -run '^$$' -fuzz '^FuzzReadAll$$' -fuzztime $(FUZZTIME) ./internal/bgp/mrt
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeArchive$$' -fuzztime $(FUZZTIME) ./internal/durable
	$(GO) test -run '^$$' -fuzz '^FuzzReadVRPCSV$$' -fuzztime $(FUZZTIME) ./internal/rpki
	$(GO) test -run '^$$' -fuzz '^FuzzPreparedVerifyMatchesStdlib$$' -fuzztime $(FUZZTIME) ./internal/rpki
	$(GO) test -run '^$$' -fuzz '^FuzzSignBatchMatchesStdlib$$' -fuzztime $(FUZZTIME) ./internal/rpki/edwards25519
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzPrefixTable$$' -fuzztime $(FUZZTIME) ./internal/netx

# The pre-merge gate: scripts/check.sh lists its legs.
check:
	FUZZTIME=$(FUZZTIME) sh scripts/check.sh

# The benchmark and its ledger: every workload, one JSON line each
# (bench/README.md).
bench:
	$(GO) run ./bench

# Advisory: each non-test func under internal/ that no command, example
# or bench binary links (scripts/reach.sh).
reach:
	sh scripts/reach.sh
