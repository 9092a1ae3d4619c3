//! Typed reports with `Display` impls that print the paper's figures and
//! tables as text.

use crate::distribution::{LengthCdf, ReuseDistancePdf};
use crate::engine::frac;
use crate::origins::OriginTable;
use std::fmt;
use tempstream_trace::{IntraChipClass, MissClass, MissTrace};

/// Figure 1 (left): off-chip read misses per 1000 instructions by class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissClassBreakdown {
    counts: [u64; 4],
    instructions: u64,
    total: u64,
}

impl MissClassBreakdown {
    /// Builds the breakdown from per-class miss counts, in
    /// [`MissClass::ALL`] order, over `instructions` instructions.
    pub fn from_counts(counts: [u64; 4], instructions: u64) -> Self {
        MissClassBreakdown {
            counts,
            instructions,
            total: counts.iter().sum(),
        }
    }

    /// Builds the breakdown from an off-chip trace.
    pub fn of_trace(trace: &MissTrace<MissClass>) -> Self {
        let mut counts = [0u64; 4];
        for r in trace.records() {
            counts[r.class.index()] += 1;
        }
        Self::from_counts(counts, trace.instructions())
    }

    /// Misses of `class`.
    pub fn count(&self, class: MissClass) -> u64 {
        self.counts[class.index()]
    }

    /// Misses of `class` per 1000 instructions.
    pub fn mpki(&self, class: MissClass) -> f64 {
        frac(self.count(class) * 1000, self.instructions)
    }

    /// All misses per 1000 instructions.
    pub fn total_mpki(&self) -> f64 {
        frac(self.total * 1000, self.instructions)
    }

    /// Fraction of misses with `class`.
    pub fn fraction(&self, class: MissClass) -> f64 {
        frac(self.count(class), self.total)
    }

    /// Total misses.
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl fmt::Display for MissClassBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for class in MissClass::ALL {
            writeln!(
                f,
                "  {:<14} {:>9.4} /1k instr  ({:>5.1}%)",
                class.label(),
                self.mpki(class),
                self.fraction(class) * 100.0
            )?;
        }
        write!(f, "  {:<14} {:>9.4} /1k instr", "total", self.total_mpki())
    }
}

/// Figure 1 (right): intra-chip L1 misses per 1000 instructions by cause
/// and responder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntraClassBreakdown {
    counts: [u64; 4],
    instructions: u64,
    total: u64,
}

impl IntraClassBreakdown {
    /// Builds the breakdown from per-class miss counts, in
    /// [`IntraChipClass::ALL`] order, over `instructions` instructions.
    pub fn from_counts(counts: [u64; 4], instructions: u64) -> Self {
        IntraClassBreakdown {
            counts,
            instructions,
            total: counts.iter().sum(),
        }
    }

    /// Builds the breakdown from an intra-chip trace.
    pub fn of_trace(trace: &MissTrace<IntraChipClass>) -> Self {
        let mut counts = [0u64; 4];
        for r in trace.records() {
            counts[r.class.index()] += 1;
        }
        Self::from_counts(counts, trace.instructions())
    }

    /// Misses of `class`.
    pub fn count(&self, class: IntraChipClass) -> u64 {
        self.counts[class.index()]
    }

    /// Misses of `class` per 1000 instructions.
    pub fn mpki(&self, class: IntraChipClass) -> f64 {
        frac(self.count(class) * 1000, self.instructions)
    }

    /// Fraction of misses with `class`.
    pub fn fraction(&self, class: IntraChipClass) -> f64 {
        frac(self.count(class), self.total)
    }

    /// Total misses.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// All misses per 1000 instructions.
    pub fn total_mpki(&self) -> f64 {
        frac(self.total * 1000, self.instructions)
    }
}

impl fmt::Display for IntraClassBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for class in IntraChipClass::ALL {
            writeln!(
                f,
                "  {:<18} {:>9.4} /1k instr  ({:>5.1}%)",
                class.label(),
                self.mpki(class),
                self.fraction(class) * 100.0
            )?;
        }
        write!(f, "  {:<18} {:>9.4} /1k instr", "total", self.total_mpki())
    }
}

/// Figure 2: fraction of misses in temporal streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFractionReport {
    /// Misses outside any stream.
    pub non_repetitive: u64,
    /// Misses in first occurrences.
    pub new_stream: u64,
    /// Misses in repeat occurrences.
    pub recurring_stream: u64,
}

impl StreamFractionReport {
    /// Total misses.
    pub fn total(&self) -> u64 {
        self.non_repetitive + self.new_stream + self.recurring_stream
    }

    /// Fraction in streams (new + recurring).
    pub fn in_streams(&self) -> f64 {
        frac(self.new_stream + self.recurring_stream, self.total())
    }

    /// Fraction in recurring occurrences only.
    pub fn recurring_fraction(&self) -> f64 {
        frac(self.recurring_stream, self.total())
    }
}

impl fmt::Display for StreamFractionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.total();
        write!(
            f,
            "non-repetitive {:>5.1}% | new stream {:>5.1}% | recurring stream {:>5.1}%",
            frac(self.non_repetitive * 100, t),
            frac(self.new_stream * 100, t),
            frac(self.recurring_stream * 100, t)
        )
    }
}

/// Figure 3: joint strided × repetitive breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrideJointReport {
    /// Not in a stream, not strided.
    pub non_repetitive_non_strided: u64,
    /// Not in a stream, strided.
    pub non_repetitive_strided: u64,
    /// In a stream, not strided.
    pub repetitive_non_strided: u64,
    /// In a stream, strided.
    pub repetitive_strided: u64,
}

impl StrideJointReport {
    /// Total misses.
    pub fn total(&self) -> u64 {
        self.non_repetitive_non_strided
            + self.non_repetitive_strided
            + self.repetitive_non_strided
            + self.repetitive_strided
    }

    /// Fraction that is strided (either repetitiveness).
    pub fn strided_fraction(&self) -> f64 {
        frac(
            self.non_repetitive_strided + self.repetitive_strided,
            self.total(),
        )
    }

    /// Fraction that is repetitive (either stride behaviour).
    pub fn repetitive_fraction(&self) -> f64 {
        frac(
            self.repetitive_non_strided + self.repetitive_strided,
            self.total(),
        )
    }
}

impl fmt::Display for StrideJointReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.total();
        writeln!(
            f,
            "  repetitive   : strided {:>5.1}%  non-strided {:>5.1}%",
            frac(self.repetitive_strided * 100, t),
            frac(self.repetitive_non_strided * 100, t)
        )?;
        write!(
            f,
            "  non-repetitive: strided {:>5.1}%  non-strided {:>5.1}%",
            frac(self.non_repetitive_strided * 100, t),
            frac(self.non_repetitive_non_strided * 100, t)
        )
    }
}

/// Renders a length CDF as the Figure-4-left series.
pub fn format_length_cdf(cdf: &LengthCdf) -> String {
    use fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  median stream length: {}",
        cdf.median().map_or("n/a".into(), |m| m.to_string())
    );
    for (len, frac) in cdf.log_samples() {
        let _ = writeln!(s, "    len <= {:>6}: {:>5.1}%", len, frac * 100.0);
    }
    s
}

/// Renders a reuse-distance PDF as the Figure-4-right series.
pub fn format_reuse_pdf(pdf: &ReuseDistancePdf) -> String {
    use fmt::Write;
    let mut s = String::new();
    for (decade, frac) in pdf.decades() {
        let _ = writeln!(
            s,
            "    dist ~10^{}: {:>5.1}%",
            decade.ilog10(),
            frac * 100.0
        );
    }
    let _ = writeln!(
        s,
        "    (truncated beyond 10^7: {} weighted misses)",
        pdf.truncated_weight()
    );
    s
}

/// Renders an origin table in the paper's Tables 3-5 layout for one
/// context.
pub fn format_origin_table(table: &OriginTable) -> String {
    use fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  {:<36} {:>9} {:>12}",
        "category", "% misses", "% in streams"
    );
    for row in &table.rows {
        let _ = writeln!(
            s,
            "  {:<36} {:>8.1}% {:>11.1}%",
            row.category.label(),
            row.miss_share(table.total_misses) * 100.0,
            row.stream_share(table.total_misses) * 100.0
        );
    }
    let _ = writeln!(
        s,
        "  {:<36} {:>8} {:>11.1}%",
        "Overall % in streams",
        "",
        table.overall_stream_fraction() * 100.0
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempstream_trace::miss::MissRecord;
    use tempstream_trace::{Block, CpuId, FunctionId, ThreadId};

    fn off_trace(classes: &[MissClass]) -> MissTrace<MissClass> {
        let mut t = MissTrace::new(1);
        for (i, &c) in classes.iter().enumerate() {
            t.push(MissRecord {
                block: Block::new(i as u64),
                cpu: CpuId::new(0),
                thread: ThreadId::new(0),
                function: FunctionId::new(0),
                class: c,
            });
        }
        t.set_instructions(4000);
        t
    }

    #[test]
    fn class_breakdown_counts_and_mpki() {
        let t = off_trace(&[
            MissClass::Coherence,
            MissClass::Coherence,
            MissClass::Compulsory,
            MissClass::Replacement,
        ]);
        let b = MissClassBreakdown::of_trace(&t);
        assert_eq!(b.count(MissClass::Coherence), 2);
        assert!((b.mpki(MissClass::Coherence) - 0.5).abs() < 1e-12);
        assert!((b.total_mpki() - 1.0).abs() < 1e-12);
        assert!((b.fraction(MissClass::Compulsory) - 0.25).abs() < 1e-12);
        assert!(b.to_string().contains("Coherence"));
    }

    #[test]
    fn intra_breakdown() {
        let mut t: MissTrace<IntraChipClass> = MissTrace::new(1);
        t.push(MissRecord {
            block: Block::new(0),
            cpu: CpuId::new(0),
            thread: ThreadId::new(0),
            function: FunctionId::new(0),
            class: IntraChipClass::CoherencePeerL1,
        });
        t.set_instructions(1000);
        let b = IntraClassBreakdown::of_trace(&t);
        assert_eq!(b.count(IntraChipClass::CoherencePeerL1), 1);
        assert_eq!(b.count(IntraChipClass::OffChip), 0);
        assert!((b.total_mpki() - 1.0).abs() < 1e-12);
        assert!(b.to_string().contains("Peer-L1"));
    }

    #[test]
    fn stream_fraction_report() {
        let r = StreamFractionReport {
            non_repetitive: 20,
            new_stream: 30,
            recurring_stream: 50,
        };
        assert_eq!(r.total(), 100);
        assert!((r.in_streams() - 0.8).abs() < 1e-12);
        assert!((r.recurring_fraction() - 0.5).abs() < 1e-12);
        assert!(r.to_string().contains("recurring"));
    }

    #[test]
    fn stride_joint_report() {
        let r = StrideJointReport {
            non_repetitive_non_strided: 10,
            non_repetitive_strided: 20,
            repetitive_non_strided: 30,
            repetitive_strided: 40,
        };
        assert_eq!(r.total(), 100);
        assert!((r.strided_fraction() - 0.6).abs() < 1e-12);
        assert!((r.repetitive_fraction() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn formatters_do_not_panic_on_empty() {
        let cdf = LengthCdf::new();
        let pdf = ReuseDistancePdf::new();
        assert!(format_length_cdf(&cdf).contains("n/a"));
        assert!(format_reuse_pdf(&pdf).contains("10^0"));
    }
}
