package engine

import "cqjoin/internal/chord"

// Wire sizes of the engine's messages (chord.Sizer). Each Size is the
// exact length of the message's encoding behind prev, the message before it
// in its batch, and what prev spares it — the message's walk from codec.go
// run in sizing mode, which adds lengths up and writes no byte — so the byte
// ledger reports what a socket deployment would transmit without paying an
// encode per hop.

// Size reports the query(q, Id(n), IP(n)) message's wire size.
func (m queryMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports the al-index(t, A) message's wire size.
func (m *alIndexMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports an asking al-index message's wire size.
func (m *alAskMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports the vl-index(t, A) message's wire size.
func (m vlIndexMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports the grouped join(q') message's wire size.
func (m joinMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports DAI-V's join(q', t') message's wire size.
func (m joinVMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports the grouped direct-delivery batch's wire size.
func (m joinBatch) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a notification batch's wire size.
func (m notifyMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a strategy probe's wire size.
func (m probeMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a retraction message's wire size.
func (m unsubMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a purge message's wire size.
func (m purgeMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports an interest mark's wire size.
func (m interestMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a revocation's wire size.
func (m revokeMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a baseline query message's wire size.
func (m baselineQueryMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a baseline tuple message's wire size.
func (m baselineTupleMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a baseline probe message's wire size.
func (m baselineProbeMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a multi-way query indexing message's wire size.
func (m mQueryMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a multi-way partial-match batch's wire size.
func (m mJoinMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a process-migration hand-off message's wire size.
func (m handoffMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a hot-key rewrite-scatter message's wire size.
func (m hotJoinMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a hot-key tuple-relay message's wire size.
func (m hotVLIndexMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a hot-key promotion migrate message's wire size.
func (m hotMigrateMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a hot-key state hand-off message's wire size.
func (m hotHandoffMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }

// Size reports a snapshot's engine-global section's wire size.
func (m snapMetaMsg) Size(prev chord.Message) (int, int) { return sizeAfter(m, prev) }
