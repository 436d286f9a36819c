# Development targets. Every gate is defined once, in ci.sh: each target
# below runs that gate, and `make ci` runs them all (see ci.sh for what
# each one checks).

GO ?= go

GATES = fmt vet vettool build test race benchsmoke bench benchmod tracesmoke profsmoke \
	vetsmoke inlinesmoke irsmoke persistsmoke telemetrysmoke analyzesmoke vmsmoke

.PHONY: all ci $(GATES)

all: build

ci:
	GO=$(GO) sh ci.sh

$(GATES):
	GO=$(GO) sh ci.sh $@
