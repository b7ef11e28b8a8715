//! Differential test for the TAGE-MP predictor core.
//!
//! `TagePredictor` keeps each block's history in a packed `u64` shift
//! register and masks it per table. This reference model keeps the naive
//! formulation instead — a `Vec<PredTuple>` per block, with each table's
//! key packed fresh from the newest `L_i` tuples of the slice — and
//! mirrors the scalar update rules one by one. Every small-scale
//! benchmark trace is replayed through both at each budget point,
//! asserting the predictions agree tuple-for-tuple at every message.

use cosmos::fasthash::fx_words;
use cosmos::packed::{self, pack_key};
use cosmos::{MessagePredictor, PredTuple, TageConfig, TagePredictor};
use simx::SystemConfig;
use stache::{BlockAddr, NodeId, ProtocolConfig, Role};
use std::collections::HashMap;
use trace::TraceBundle;
use workloads::{run_to_trace, small_suite};

const CTR_MAX: u8 = 7;
const U_MAX: u8 = 3;
const HYST_MAX: u8 = 3;

#[derive(Clone, Copy, Default)]
struct RefBase {
    valid: bool,
    pred: u16,
    hyst: u8,
}

#[derive(Clone, Copy, Default)]
struct RefTagged {
    valid: bool,
    tag: u16,
    pred: u16,
    ctr: u8,
    u: u8,
}

/// The unpacked reference: identical geometry and hash math, but block
/// histories held as plain tuple vectors (newest last).
struct RefTage {
    config: TageConfig,
    base: Vec<RefBase>,
    tables: Vec<Vec<RefTagged>>,
    histories: HashMap<BlockAddr, Vec<PredTuple>>,
}

impl RefTage {
    fn new(config: TageConfig) -> Self {
        let base = vec![RefBase::default(); 1 << config.base_bits];
        let tables = (0..config.num_tables())
            .map(|_| vec![RefTagged::default(); 1 << config.tagged_bits])
            .collect();
        RefTage {
            config,
            base,
            tables,
            histories: HashMap::new(),
        }
    }

    /// The per-table hash, built from the newest `L_i` tuples packed on
    /// the spot rather than masked out of a resident register.
    fn table_hash(&self, table: usize, block: BlockAddr, hist: &[PredTuple]) -> u64 {
        let len = self.config.hist_lens[table];
        let masked = pack_key(&hist[hist.len() - len..]);
        fx_words(&[block.number(), masked, table as u64])
    }

    fn index_of(&self, hash: u64, bits: u32) -> usize {
        (hash & ((1u64 << bits) - 1)) as usize
    }

    fn tag_of(&self, hash: u64) -> u16 {
        ((hash >> 32) & ((1u64 << self.config.tag_bits) - 1)) as u16
    }

    fn base_index(&self, block: BlockAddr) -> usize {
        let h = fx_words(&[block.number()]);
        self.index_of(h, self.config.base_bits)
    }

    /// (provider table or None=base, prediction, ctr) matches, longest
    /// history first, then the chosen answer under `use_alt_on_na`.
    fn lookup(&self, block: BlockAddr) -> (Option<(Option<usize>, u16)>, Option<u16>) {
        let empty = Vec::new();
        let hist = self.histories.get(&block).unwrap_or(&empty);
        let mut matches: Vec<(Option<usize>, u16, u8)> = Vec::new();
        for i in (0..self.config.num_tables()).rev() {
            if matches.len() == 2 {
                break;
            }
            if hist.len() < self.config.hist_lens[i] {
                continue;
            }
            let h = self.table_hash(i, block, hist);
            let e = &self.tables[i][self.index_of(h, self.config.tagged_bits)];
            if e.valid && e.tag == self.tag_of(h) {
                matches.push((Some(i), e.pred, e.ctr));
            }
        }
        if matches.len() < 2 {
            let b = &self.base[self.base_index(block)];
            if b.valid {
                matches.push((None, b.pred, CTR_MAX));
            }
        }
        let provider = matches.first().map(|&(s, p, _)| (s, p));
        let chosen = match matches.first() {
            Some(&(_, _, 0)) => matches.get(1).or(matches.first()).map(|&(_, p, _)| p),
            Some(&(_, p, _)) => Some(p),
            None => None,
        };
        (provider, chosen)
    }

    fn predict(&self, block: BlockAddr) -> Option<PredTuple> {
        self.lookup(block).1.and_then(PredTuple::unpack)
    }

    fn observe(&mut self, block: BlockAddr, tuple: PredTuple) {
        let observed = tuple.pack();
        let (provider, chosen) = self.lookup(block);
        let alt = {
            // Recompute the alternate exactly as lookup orders matches.
            let empty = Vec::new();
            let hist = self.histories.get(&block).unwrap_or(&empty);
            let mut matches: Vec<u16> = Vec::new();
            for i in (0..self.config.num_tables()).rev() {
                if matches.len() == 2 {
                    break;
                }
                if hist.len() < self.config.hist_lens[i] {
                    continue;
                }
                let h = self.table_hash(i, block, hist);
                let e = &self.tables[i][self.index_of(h, self.config.tagged_bits)];
                if e.valid && e.tag == self.tag_of(h) {
                    matches.push(e.pred);
                }
            }
            if matches.len() < 2 {
                let b = &self.base[self.base_index(block)];
                if b.valid {
                    matches.push(b.pred);
                }
            }
            matches.get(1).copied()
        };
        let hist_snapshot: Vec<PredTuple> = self.histories.get(&block).cloned().unwrap_or_default();

        if let Some((Some(i), pred)) = provider {
            let h = self.table_hash(i, block, &hist_snapshot);
            let idx = self.index_of(h, self.config.tagged_bits);
            let e = &mut self.tables[i][idx];
            if pred == observed {
                e.ctr = (e.ctr + 1).min(CTR_MAX);
            } else if e.ctr > 0 {
                e.ctr -= 1;
            } else {
                e.pred = observed;
            }
            if let Some(alt_pred) = alt {
                if alt_pred != pred {
                    if pred == observed {
                        e.u = (e.u + 1).min(U_MAX);
                    } else {
                        e.u = e.u.saturating_sub(1);
                    }
                }
            }
        }

        let idx = self.base_index(block);
        let b = &mut self.base[idx];
        if !b.valid {
            *b = RefBase {
                valid: true,
                pred: observed,
                hyst: 0,
            };
        } else if b.pred == observed {
            b.hyst = (b.hyst + 1).min(HYST_MAX);
        } else if b.hyst > 0 {
            b.hyst -= 1;
        } else {
            b.pred = observed;
        }

        if chosen != Some(observed) {
            let start = match provider {
                Some((Some(i), _)) => i + 1,
                _ => 0,
            };
            let mut allocated = false;
            for i in start..self.config.num_tables() {
                if hist_snapshot.len() < self.config.hist_lens[i] {
                    break;
                }
                let h = self.table_hash(i, block, &hist_snapshot);
                let idx = self.index_of(h, self.config.tagged_bits);
                let tag = self.tag_of(h);
                let e = &mut self.tables[i][idx];
                if !e.valid || e.u == 0 {
                    *e = RefTagged {
                        valid: true,
                        tag,
                        pred: observed,
                        ctr: 0,
                        u: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for i in start..self.config.num_tables() {
                    if hist_snapshot.len() < self.config.hist_lens[i] {
                        break;
                    }
                    let h = self.table_hash(i, block, &hist_snapshot);
                    let idx = self.index_of(h, self.config.tagged_bits);
                    self.tables[i][idx].u = self.tables[i][idx].u.saturating_sub(1);
                }
            }
        }

        let hist = self.histories.entry(block).or_default();
        hist.push(tuple);
        if hist.len() > packed::MAX_DEPTH {
            hist.remove(0);
        }
    }
}

fn small_traces() -> Vec<TraceBundle> {
    small_suite()
        .into_iter()
        .map(|mut w| {
            run_to_trace(w.as_mut(), ProtocolConfig::paper(), SystemConfig::paper())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
        })
        .collect()
}

fn agent_index(node: NodeId, role: Role) -> usize {
    node.index() * 2
        + match role {
            Role::Cache => 0,
            Role::Directory => 1,
        }
}

#[test]
fn packed_tage_matches_unpacked_reference_on_all_benchmarks() {
    let configs = [TageConfig::small(), TageConfig::mid(), TageConfig::large()];
    for bundle in small_traces() {
        for config in &configs {
            let mut real: Vec<Option<TagePredictor>> = Vec::new();
            let mut reference: Vec<Option<RefTage>> = Vec::new();
            for (n, r) in bundle.records().iter().enumerate() {
                let idx = agent_index(r.node, r.role);
                if idx >= real.len() {
                    real.resize_with(idx + 1, || None);
                    reference.resize_with(idx + 1, || None);
                }
                let p = real[idx].get_or_insert_with(|| TagePredictor::new(config.clone()));
                let q = reference[idx].get_or_insert_with(|| RefTage::new(config.clone()));
                let observed = PredTuple::new(r.sender, r.mtype);
                assert_eq!(
                    p.predict(r.block),
                    q.predict(r.block),
                    "{} record {n} ({} tables): packed and reference disagree",
                    bundle.meta().app,
                    config.num_tables(),
                );
                p.observe(r.block, observed);
                q.observe(r.block, observed);
            }
        }
    }
}

#[test]
fn storage_accounting_matches_table_geometry_exactly() {
    // `table_bits` must be derivable from the config by hand — the
    // frontier's honesty depends on it.
    for config in [TageConfig::small(), TageConfig::mid(), TageConfig::large()] {
        let expected = (1u64 << config.base_bits) * cosmos::tage::BASE_ENTRY_BITS
            + config.num_tables() as u64
                * (1u64 << config.tagged_bits)
                * (u64::from(config.tag_bits) + cosmos::tage::TAGGED_ENTRY_BITS);
        assert_eq!(config.table_bits(), expected);
        // A fresh predictor reports exactly the geometry; each distinct
        // block adds exactly one 64-bit history register.
        let mut p = TagePredictor::new(config.clone());
        assert_eq!(MessagePredictor::storage_bits(&p), expected);
        for i in 0..5 {
            p.observe(
                BlockAddr::new(i),
                PredTuple::new(NodeId::new(1), stache::MsgType::GetRoRequest),
            );
        }
        assert_eq!(MessagePredictor::storage_bits(&p), expected + 5 * 64);
    }
}
