package guard

// KillSwitchConfig tunes the overload kill-switch. The zero value maps
// to OVS's ofproto-dpif-upcall constants: trip when resident flows
// exceed twice the flow limit, collapse max-idle to one logical unit,
// and declare recovery after two consecutive clear rounds.
type KillSwitchConfig struct {
	// TripFactor engages the switch when flows > TripFactor*limit
	// (default 2, OVS's flow_count > 2*flow_limit).
	TripFactor float64
	// ClearFactor disengages it when flows <= ClearFactor*limit
	// (default 1.25 — above 1 so a cache sitting exactly at its limit,
	// the steady state TrimToLimit produces, reads as clear).
	ClearFactor float64
	// CollapsedMaxIdle is the idle deadline substituted while engaged
	// (default 1: everything not hit in the last logical unit expires).
	CollapsedMaxIdle uint64
	// ClearRounds is how many consecutive clear rounds complete a
	// recovery (default 2).
	ClearRounds int
}

func (c *KillSwitchConfig) setDefaults() {
	if c.TripFactor <= 0 {
		c.TripFactor = 2
	}
	if c.ClearFactor <= 0 {
		c.ClearFactor = 1.25
	}
	if c.CollapsedMaxIdle == 0 {
		c.CollapsedMaxIdle = 1
	}
	if c.ClearRounds <= 0 {
		c.ClearRounds = 2
	}
}

// KillSwitch is the ofproto-dpif-upcall overload backstop: consulted
// once per revalidator round (it implements the revalidator's
// OverloadController hook), it watches resident flows against the
// adaptive limit and collapses the round's idle deadline while the
// cache is critically over-populated, forcing a mass expiry. Recovery
// time — the logical ticks from the trip to ClearRounds consecutive
// clear rounds — is tracked per episode.
type KillSwitch struct {
	cfg KillSwitchConfig

	engaged     bool
	recovering  bool // a trip episode is open; closes after ClearRounds clear rounds
	clearStreak int
	tripAt      uint64

	trips        uint64
	recoveries   uint64
	lastRecovery uint64
}

// NewKillSwitch builds a kill-switch (zero config: OVS constants).
func NewKillSwitch(cfg KillSwitchConfig) *KillSwitch {
	cfg.setDefaults()
	return &KillSwitch{cfg: cfg}
}

// RoundMaxIdle is the per-round hook: given the previous round's dumped
// flow count, the current flow limit and the configured idle deadline,
// it returns the idle deadline this round should sweep with. Engaged
// rounds get CollapsedMaxIdle; everything else passes maxIdle through.
func (k *KillSwitch) RoundMaxIdle(now uint64, flows, limit int, maxIdle uint64) uint64 {
	if limit <= 0 {
		return maxIdle
	}
	pressure := float64(flows)
	over := pressure > k.cfg.TripFactor*float64(limit)
	clear := pressure <= k.cfg.ClearFactor*float64(limit)

	if !k.engaged && over {
		k.engaged = true
		k.trips++
		k.clearStreak = 0
		if !k.recovering {
			// A re-trip during an open recovery episode keeps the original
			// trip clock: recovery time measures the whole incident.
			k.recovering = true
			k.tripAt = now
		}
	}
	if k.engaged {
		if !clear {
			k.clearStreak = 0
			return k.cfg.CollapsedMaxIdle
		}
		k.engaged = false // pressure cleared: restore the normal deadline
	}
	if k.recovering && clear {
		k.clearStreak++
		if k.clearStreak >= k.cfg.ClearRounds {
			k.recovering = false
			k.recoveries++
			k.lastRecovery = now - k.tripAt
		}
	}
	return maxIdle
}

// Engaged reports whether the switch is currently collapsing max-idle.
func (k *KillSwitch) Engaged() bool { return k.engaged }

// Trips returns how many times the switch engaged.
func (k *KillSwitch) Trips() uint64 { return k.trips }

// Recoveries returns how many trip episodes completed recovery.
func (k *KillSwitch) Recoveries() uint64 { return k.recoveries }

// LastRecoveryTicks returns the logical duration of the most recently
// completed recovery (trip to sustained clear), 0 if none completed.
func (k *KillSwitch) LastRecoveryTicks() uint64 { return k.lastRecovery }
