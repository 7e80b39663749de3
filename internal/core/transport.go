package core

import (
	"fmt"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/collective"
)

// transport declares one ChannelKind: everything the engine knows about a
// kind apart from its data path, which is the channel that open returns.
// The hooks' bodies live in the kind's channel_*.go, and the package comment
// says what each must preserve; a nil hook means the kind has nothing to do
// at that point.
type transport struct {
	// name is the paper's name for the variant, spelling how a command
	// line writes it.
	name, spelling string
	// provision creates what the kind keeps for the deployment's lifetime.
	provision func(d *Deployment) error
	// bind creates and unbind releases one run's own resources.
	bind, unbind func(d *Deployment, run *runState)
	// open returns worker w's end of the channel.
	open func(w *worker) channel
	// traits summarises the kind for the analytic collective cost model, for
	// a message of msgBytes over services calibrated as ec.
	traits func(cfg Config, ec env.Config, msgBytes int64) collective.Traits
	// bill adds to a run's usage what one worker's ledger says the kind's
	// own services were asked for. Model-store reads and writes are every
	// kind's and are not its to add.
	bill func(w *WorkerMetrics, u *usage.Meter)
}

// transports is the one place a ChannelKind is declared, indexed by kind.
// Serial is an engine shape, not a transport: it has a name and nothing
// else. Hybrid owns no service and is composed from the Memory and Object
// pieces, as its channel is.
var transports = [...]transport{
	Serial: {name: "FSD-Inf-Serial", spelling: "serial"},
	Queue: {
		name: "FSD-Inf-Queue", spelling: "queue",
		provision: provisionTopics, bind: bindRunQueues, unbind: unbindRunQueues,
		open: openQueue, traits: queueTraits, bill: billQueue,
	},
	Object: {
		name: "FSD-Inf-Object", spelling: "object",
		provision: provisionBuckets, open: openObject, traits: objectTraits, bill: billObject,
	},
	Memory: {
		name: "FSD-Inf-Memory", spelling: "memory",
		provision: provisionStore, bind: bindStore, unbind: dropRunKeyspace,
		open: openMemory, traits: memoryTraits, bill: billStore,
	},
	Hybrid: {
		name: "FSD-Inf-Hybrid", spelling: "hybrid",
		provision: provisionHybrid, bind: bindStore, unbind: dropRunKeyspace,
		open: openHybrid, traits: hybridTraits, bill: billHybrid,
	},
}

// ChannelKinds lists every kind the table declares, in table order, so code
// that ranges over kinds — the §VI-F validation, a test — covers a new row
// without being edited.
func ChannelKinds() []ChannelKind {
	kinds := make([]ChannelKind, len(transports))
	for k := range transports {
		kinds[k] = ChannelKind(k)
	}
	return kinds
}

// known reports whether c has a row in the table.
func (c ChannelKind) known() bool { return c >= 0 && int(c) < len(transports) }

// String returns the paper's name for the variant.
func (c ChannelKind) String() string {
	if !c.known() {
		return fmt.Sprintf("ChannelKind(%d)", int(c))
	}
	return transports[c].name
}

// ParseChannelKind returns the kind whose command-line spelling is s.
func ParseChannelKind(s string) (ChannelKind, error) {
	for k := range transports {
		if transports[k].spelling == s {
			return ChannelKind(k), nil
		}
	}
	return 0, fmt.Errorf("core: unknown channel %q", s)
}

// ChannelTraits is cfg.Channel's summary for the analytic collective cost
// model, for a message of msgBytes over services calibrated as ec: what a
// worker's AutoAlgo consults inside a deployment (ec is its environment's
// configuration) and what the planner's pre-filter consults before one
// exists (env.DefaultConfig()), so the two cannot disagree. Zero fields of
// cfg take the deployment defaults; Serial has no traits.
func ChannelTraits(cfg Config, ec env.Config, msgBytes int64) collective.Traits {
	if !cfg.Channel.known() || transports[cfg.Channel].traits == nil {
		return collective.Traits{}
	}
	return transports[cfg.Channel].traits(cfg.withDefaults(), ec, msgBytes)
}
