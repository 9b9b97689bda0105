//! Configuration of the PVA unit model.

use pva_core::Geometry;
use sdram::{DevicePreset, SdramConfig};

/// Row-management predictor policy (§5.2.2 "Row Management Algorithm").
///
/// The paper's one-bit `autoprecharge_predictor` is set "to one if the
/// row that \[was\] open last within the internal bank matches the row of
/// the address of the first vector element", and a set predictor votes to
/// close the row when a request completes. Read literally, that closes
/// rows exactly when consecutive requests *reuse* them, which defeats the
/// stated goal ("if the next access is likely to be to the same row, then
/// it is better to leave that row open"); we believe the prose inverted
/// the condition. Both readings are provided — plus always-close /
/// always-open bounds — and the `ablation_scheduler` bench quantifies the
/// difference. The default is [`RowPolicy::MissPredictsClose`], the
/// reading consistent with the paper's stated intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RowPolicy {
    /// Predictor = 1 (close) when the previously-open row *missed* the
    /// new request's first row: repeat-miss patterns close eagerly,
    /// repeat-hit patterns keep rows open. The intent-consistent reading.
    #[default]
    MissPredictsClose,
    /// Predictor = 1 (close) when the previously-open row *matched* the
    /// new request's first row — the paper's pseudo-code taken verbatim.
    PaperLiteral,
    /// Always auto-precharge after the last access of a request
    /// (closed-page policy).
    AlwaysClose,
    /// Never auto-precharge on request completion (open-page policy).
    AlwaysOpen,
    /// The Alpha 21174 scheme (§2.4.1): a four-bit hit/miss history per
    /// internal bank indexes a software-set 16-bit precharge policy
    /// register ([`SchedulerOptions::precharge_policy_reg`]); the
    /// indexed bit decides whether to close the row.
    AlphaHistory,
}

/// Feature switches for the §5.2 scheduler, used by the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerOptions {
    /// Allow younger vector contexts to issue when older ones are
    /// blocked (the out-of-order heuristic of §5.2.2). When disabled,
    /// only the oldest context may issue reads/writes.
    pub out_of_order: bool,
    /// Promote row activates/precharges of blocked contexts above reads
    /// and writes when they do not conflict with rows in use ("opening
    /// rows as early as possible").
    pub promote_opens: bool,
    /// Enable the FHP -> VC and FHC -> VC bypass paths of §5.2.3 that
    /// skip the request FIFO when the controller is idle.
    pub bypass_paths: bool,
    /// Row-management predictor.
    pub row_policy: RowPolicy,
    /// The 21174-style 16-bit precharge policy register used by
    /// [`RowPolicy::AlphaHistory`]: bit `h` set means "precharge after
    /// this request" when the four-bit hit history equals `h` (1 = hit,
    /// most recent in the low bit).
    pub precharge_policy_reg: u16,
}

impl Default for SchedulerOptions {
    fn default() -> Self {
        SchedulerOptions {
            out_of_order: true,
            promote_opens: true,
            bypass_paths: true,
            row_policy: RowPolicy::default(),
            precharge_policy_reg: default_precharge_policy(),
        }
    }
}

/// The default 21174-style policy register: close the row when at most
/// two of the last four requests hit it (majority-miss heuristic).
pub const fn default_precharge_policy() -> u16 {
    let mut reg = 0u16;
    let mut h = 0u16;
    while h < 16 {
        let hits = h.count_ones();
        if hits <= 2 {
            reg |= 1 << h;
        }
        h += 1;
    }
    reg
}

/// Full configuration of the PVA unit.
///
/// Defaults are the paper's prototype (§5.1): 16 word-interleaved
/// 32-bit SDRAM banks, 128-byte L2 lines (32-word vector commands), 8
/// outstanding bus transactions, 4 vector contexts per bank controller,
/// a 2-cycle multiply-add in the first-hit calculate module, and 2
/// words per cycle on the 128-bit BC bus.
///
/// # Examples
///
/// ```
/// use pva_sim::PvaConfig;
/// let cfg = PvaConfig::default();
/// assert_eq!(cfg.geometry.banks(), 16);
/// assert_eq!(cfg.line_words, 32);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PvaConfig {
    /// Bank geometry. Word-interleaved geometries use one K1 PLA per
    /// bank controller; block/cache-line interleaved ones instantiate
    /// `N` logical first-hit units per controller (§4.3.1). Bank widths
    /// above one word are rejected — model wide banks as more banks.
    pub geometry: Geometry,
    /// Vector command length limit in words (one L2 cache line).
    pub line_words: u64,
    /// Outstanding split-transaction IDs on the vector bus. Each bank
    /// controller's register file / request FIFO holds one entry per
    /// ID, so it can never overflow (§5.2.3).
    pub transaction_ids: usize,
    /// Vector contexts per bank controller.
    pub vector_contexts: usize,
    /// Latency of the FHC multiply-add for non-power-of-two strides
    /// (cycles). The synthesized prototype needed two cycles at 100 MHz.
    pub fhc_latency: u32,
    /// Words transferred per cycle during STAGE_READ / STAGE_WRITE on
    /// the BC bus (two 64-bit halves of the 128-bit bus).
    pub stage_words_per_cycle: u64,
    /// SDRAM device timing.
    pub sdram: SdramConfig,
    /// Scheduler feature switches.
    pub options: SchedulerOptions,
    /// Record a cycle-stamped [`TraceEvent`](crate::TraceEvent) log
    /// retrievable via [`PvaUnit::take_events`](crate::PvaUnit::take_events).
    pub record_trace: bool,
    /// Cycles without any transaction forward progress before
    /// [`step`](crate::PvaUnit::step) / [`run`](crate::PvaUnit::run)
    /// abort with [`PvaError::Watchdog`](pva_core::PvaError::Watchdog).
    /// `0` disables the watchdog.
    pub watchdog_cycles: u64,
    /// How many times a bank controller re-reads an element whose data
    /// came back poisoned (uncorrectable ECC error or dead bank) before
    /// giving up and flagging the element in the completion.
    pub max_read_retries: u32,
    /// Base backoff before a retry re-issues, in cycles; doubles each
    /// attempt (clamped), spreading retries away from the disturbance
    /// that poisoned the data.
    pub retry_backoff_cycles: u32,
    /// Graceful degradation: when the device reports a hard-failed
    /// internal bank, remap its rows into a healthy neighbour bank
    /// (serializing the two banks' subvector accesses through one row
    /// buffer) instead of poisoning every access.
    pub degradation: bool,
    /// Simulator (not hardware) switch that selects the main loop and
    /// nothing else: `true` runs the event-driven core, which jumps
    /// quiescent cycles in bulk; `false` runs the reference stepper,
    /// which ticks every component every cycle. Both loops call the same
    /// component code, so cycle counts and statistics are identical
    /// either way (the equivalence tests prove it). The reference
    /// stepper stays as the cross-checking oracle and the throughput
    /// baseline.
    pub fast_sim: bool,
}

impl Default for PvaConfig {
    fn default() -> Self {
        PvaConfig {
            geometry: Geometry::default(),
            line_words: 32,
            transaction_ids: 8,
            vector_contexts: 4,
            fhc_latency: 2,
            stage_words_per_cycle: 2,
            sdram: SdramConfig::default(),
            options: SchedulerOptions::default(),
            record_trace: false,
            watchdog_cycles: 1_000_000,
            max_read_retries: 4,
            retry_backoff_cycles: 8,
            degradation: true,
            fast_sim: true,
        }
    }
}

impl PvaConfig {
    /// The prototype configuration with SRAM-like memory behind the same
    /// parallel-access front end: single-cycle uniform access, no
    /// activate/precharge costs. Used for the "PVA SRAM" comparator of
    /// §6.1.
    pub fn sram_backend() -> Self {
        PvaConfig {
            sdram: SdramConfig::for_device(DevicePreset::SramLike),
            ..PvaConfig::default()
        }
    }

    /// A Command Vector Memory System-like configuration (§3.1 related
    /// work): the same broadcast design, but subcommand generation for
    /// non-power-of-two strides takes ~15 memory cycles (the paper:
    /// "the authors state that for strides that are not powers of two,
    /// 15 memory cycles are required to generate the subcommands"),
    /// versus the PVA's at most five. Power-of-two strides take two
    /// cycles in both designs.
    pub fn cvms_like() -> Self {
        PvaConfig {
            fhc_latency: 13, // 1 (predict) + 13 + 1 (inject) ~= 15 cycles
            ..PvaConfig::default()
        }
    }

    /// Checks every unit-level consistency rule (plus the nested SDRAM
    /// rules) and returns all violations.
    ///
    /// Like [`SdramConfig::check`], the same pass runs at construction
    /// ([`PvaUnit::new`](crate::PvaUnit::new)), in the `pva-analysis`
    /// binary, and in the property tests.
    pub fn check(&self) -> Vec<PvaConfigError> {
        let mut errs: Vec<PvaConfigError> = self
            .sdram
            .check()
            .into_iter()
            .map(PvaConfigError::Sdram)
            .collect();
        if self.transaction_ids == 0 {
            errs.push(PvaConfigError::NoTransactionIds);
        }
        if self.transaction_ids > 256 {
            // TxnId is a u8 on the modeled vector bus.
            errs.push(PvaConfigError::TooManyTransactionIds(self.transaction_ids));
        }
        if self.vector_contexts == 0 {
            errs.push(PvaConfigError::NoVectorContexts);
        }
        if self.line_words == 0 {
            errs.push(PvaConfigError::ZeroLineWords);
        }
        if !self.stage_words_per_cycle.is_power_of_two() {
            // The BC bus moves a power-of-two number of words per beat
            // (two 64-bit halves of the 128-bit bus); the staging
            // cycle counters divide by it, which must stay a shift.
            errs.push(PvaConfigError::StageWordsNotPowerOfTwo(
                self.stage_words_per_cycle,
            ));
        }
        if self.fhc_latency == 0 {
            errs.push(PvaConfigError::ZeroFhcLatency);
        }
        if self.max_read_retries > 0 && self.retry_backoff_cycles == 0 {
            // The retry timer reloads from this value; a zero reload
            // re-issues the failed read on the very next cycle, which
            // defeats the point of backing off past a disturbance.
            errs.push(PvaConfigError::ZeroRetryBackoff);
        }
        errs
    }

    /// Validates the configuration, returning the first violation.
    ///
    /// # Errors
    ///
    /// Returns the first [`PvaConfigError`] from [`PvaConfig::check`].
    pub fn validate(&self) -> Result<(), PvaConfigError> {
        match self.check().into_iter().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A violation of the [`PvaConfig`] consistency rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PvaConfigError {
    /// The nested [`SdramConfig`] failed its own consistency check.
    Sdram(sdram::ConfigError),
    /// `transaction_ids` must be at least 1.
    NoTransactionIds,
    /// `transaction_ids` must fit the 8-bit transaction-ID field of the
    /// modeled split-transaction bus (at most 256).
    TooManyTransactionIds(usize),
    /// `vector_contexts` must be at least 1.
    NoVectorContexts,
    /// `line_words` must be at least 1.
    ZeroLineWords,
    /// `stage_words_per_cycle` must be a nonzero power of two: the
    /// staging cycle counters divide transfer lengths by it, and that
    /// division must reduce to a shift in hardware.
    StageWordsNotPowerOfTwo(u64),
    /// `fhc_latency` must be at least 1: the FHC multiply-add cannot
    /// produce its result in the cycle the operands arrive.
    ZeroFhcLatency,
    /// `retry_backoff_cycles` must be at least 1 when read retries are
    /// enabled: the retry timer reloads from it.
    ZeroRetryBackoff,
}

impl PvaConfigError {
    /// A static one-line description of the violated rule, used to build
    /// the [`PvaError::InvalidConfig`](pva_core::PvaError::InvalidConfig)
    /// payload at construction time.
    pub const fn rule(&self) -> &'static str {
        match self {
            PvaConfigError::Sdram(_) => "SDRAM timing/geometry parameters are inconsistent",
            PvaConfigError::NoTransactionIds => "transaction_ids must be at least 1",
            PvaConfigError::TooManyTransactionIds(_) => {
                "transaction_ids exceeds the 8-bit bus transaction-ID field"
            }
            PvaConfigError::NoVectorContexts => "vector_contexts must be at least 1",
            PvaConfigError::ZeroLineWords => "line_words must be at least 1",
            PvaConfigError::StageWordsNotPowerOfTwo(_) => {
                "stage_words_per_cycle must be a nonzero power of two"
            }
            PvaConfigError::ZeroFhcLatency => "fhc_latency must be at least 1",
            PvaConfigError::ZeroRetryBackoff => {
                "retry_backoff_cycles must be at least 1 when retries are enabled"
            }
        }
    }
}

impl core::fmt::Display for PvaConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            PvaConfigError::Sdram(e) => write!(f, "sdram: {e}"),
            PvaConfigError::TooManyTransactionIds(n) => {
                write!(
                    f,
                    "transaction_ids = {n} exceeds the 8-bit ID field (max 256)"
                )
            }
            PvaConfigError::StageWordsNotPowerOfTwo(n) => {
                write!(
                    f,
                    "stage_words_per_cycle = {n} is not a nonzero power of two"
                )
            }
            ref other => f.write_str(other.rule()),
        }
    }
}

impl std::error::Error for PvaConfigError {}

impl From<sdram::ConfigError> for PvaConfigError {
    fn from(e: sdram::ConfigError) -> Self {
        PvaConfigError::Sdram(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_prototype() {
        let c = PvaConfig::default();
        assert_eq!(c.geometry.banks(), 16);
        assert_eq!(c.transaction_ids, 8);
        assert_eq!(c.vector_contexts, 4);
        assert_eq!(c.fhc_latency, 2);
        assert_eq!(c.stage_words_per_cycle, 2);
    }

    #[test]
    fn sram_backend_removes_dram_latencies() {
        let c = PvaConfig::sram_backend();
        assert_eq!(c.sdram.t_rcd, 0);
        assert_eq!(c.sdram.t_rp, 0);
        assert_eq!(c.sdram.t_cas, 1);
    }

    #[test]
    fn row_policy_default_is_intent_consistent() {
        assert_eq!(RowPolicy::default(), RowPolicy::MissPredictsClose);
    }

    #[test]
    fn all_presets_validate_clean() {
        for (name, cfg) in [
            ("default", PvaConfig::default()),
            ("sram_backend", PvaConfig::sram_backend()),
            ("cvms_like", PvaConfig::cvms_like()),
        ] {
            assert_eq!(cfg.check(), vec![], "preset {name} must be consistent");
        }
    }

    #[test]
    fn unit_rules_fire_on_minimal_violations() {
        let cases: Vec<(PvaConfig, PvaConfigError)> = vec![
            (
                PvaConfig {
                    transaction_ids: 0,
                    ..PvaConfig::default()
                },
                PvaConfigError::NoTransactionIds,
            ),
            (
                PvaConfig {
                    transaction_ids: 257,
                    ..PvaConfig::default()
                },
                PvaConfigError::TooManyTransactionIds(257),
            ),
            (
                PvaConfig {
                    vector_contexts: 0,
                    ..PvaConfig::default()
                },
                PvaConfigError::NoVectorContexts,
            ),
            (
                PvaConfig {
                    line_words: 0,
                    ..PvaConfig::default()
                },
                PvaConfigError::ZeroLineWords,
            ),
            (
                PvaConfig {
                    stage_words_per_cycle: 0,
                    ..PvaConfig::default()
                },
                PvaConfigError::StageWordsNotPowerOfTwo(0),
            ),
            (
                PvaConfig {
                    stage_words_per_cycle: 3,
                    ..PvaConfig::default()
                },
                PvaConfigError::StageWordsNotPowerOfTwo(3),
            ),
            (
                PvaConfig {
                    fhc_latency: 0,
                    ..PvaConfig::default()
                },
                PvaConfigError::ZeroFhcLatency,
            ),
            (
                PvaConfig {
                    retry_backoff_cycles: 0,
                    ..PvaConfig::default()
                },
                PvaConfigError::ZeroRetryBackoff,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.check(), vec![want]);
        }
    }

    #[test]
    fn sdram_violations_surface_through_unit_check() {
        let cfg = PvaConfig {
            sdram: sdram::SdramConfig {
                internal_banks: 3,
                ..sdram::SdramConfig::default()
            },
            ..PvaConfig::default()
        };
        assert_eq!(
            cfg.check(),
            vec![PvaConfigError::Sdram(
                sdram::ConfigError::InternalBanksNotPowerOfTwo(3)
            )]
        );
    }
}
