//! Miss classes and the paper's Table-2 code-module taxonomy.
//!
//! Two orthogonal classifications apply to every read miss:
//!
//! - [`MissClass`]: the "4 C's"-style cause of the miss (paper §4.1), and for
//!   intra-chip misses the responder-based [`IntraChipClass`];
//! - [`MissCategory`]: the application/OS code module the missing function
//!   belongs to (paper Table 2), used for the §5 origin analysis.

use std::fmt;

/// "4 C's"-style classification of an off-chip read miss (paper §4.1).
///
/// Classification priority follows the paper: a block never accessed before
/// is `Compulsory`; else a block written by DMA or a bulk copyout store since
/// this CPU last read it is `IoCoherence`; else a block written by another
/// processor since this CPU last read it is `Coherence`; everything else is
/// `Replacement` (capacity or conflict; with 16-way L2s, mostly capacity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MissClass {
    /// First access ever to the cache block.
    Compulsory,
    /// Block was invalidated/updated by DMA or an OS-to-user bulk copy.
    IoCoherence,
    /// Block was written by another processor since last read here.
    Coherence,
    /// Block was displaced from the local hierarchy (capacity/conflict).
    Replacement,
}

impl MissClass {
    /// All classes, in the order the paper's Figure 1 (left) stacks them.
    pub const ALL: [MissClass; 4] = [
        MissClass::Compulsory,
        MissClass::IoCoherence,
        MissClass::Replacement,
        MissClass::Coherence,
    ];

    /// This class's position in [`ALL`](Self::ALL).
    pub const fn index(self) -> usize {
        match self {
            MissClass::Compulsory => 0,
            MissClass::IoCoherence => 1,
            MissClass::Replacement => 2,
            MissClass::Coherence => 3,
        }
    }

    /// Short label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            MissClass::Compulsory => "Compulsory",
            MissClass::IoCoherence => "I/O Coherence",
            MissClass::Coherence => "Coherence",
            MissClass::Replacement => "Replacement",
        }
    }
}

impl fmt::Display for MissClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Classification of an intra-chip (L1) miss in the single-chip system by
/// cause and responder (paper Figure 1, right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IntraChipClass {
    /// Coherence miss satisfied by a peer L1 holding the block dirty.
    CoherencePeerL1,
    /// Coherence miss satisfied by the shared L2.
    CoherenceL2,
    /// L1 replacement miss that hit in the shared L2.
    ReplacementL2,
    /// L1 miss that also missed in the L2 and went off chip.
    OffChip,
}

impl IntraChipClass {
    /// All classes, in the order the paper's Figure 1 (right) stacks them.
    pub const ALL: [IntraChipClass; 4] = [
        IntraChipClass::OffChip,
        IntraChipClass::ReplacementL2,
        IntraChipClass::CoherenceL2,
        IntraChipClass::CoherencePeerL1,
    ];

    /// This class's position in [`ALL`](Self::ALL).
    pub const fn index(self) -> usize {
        match self {
            IntraChipClass::OffChip => 0,
            IntraChipClass::ReplacementL2 => 1,
            IntraChipClass::CoherenceL2 => 2,
            IntraChipClass::CoherencePeerL1 => 3,
        }
    }

    /// Short label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            IntraChipClass::CoherencePeerL1 => "Coherence:Peer-L1",
            IntraChipClass::CoherenceL2 => "Coherence:L2",
            IntraChipClass::ReplacementL2 => "Replacement:L2",
            IntraChipClass::OffChip => "Off-chip",
        }
    }
}

impl fmt::Display for IntraChipClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The three commercial application classes studied by the paper (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AppClass {
    /// SPECweb99 on Apache or Zeus.
    Web,
    /// TPC-C on DB2.
    Oltp,
    /// TPC-H queries on DB2.
    Dss,
}

impl fmt::Display for AppClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AppClass::Web => "Web",
            AppClass::Oltp => "OLTP",
            AppClass::Dss => "DSS",
        })
    }
}

/// The paper's Table-2 code-module categories.
///
/// Cross-application categories apply to every workload; the web- and
/// DB2-specific categories apply only to the corresponding [`AppClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MissCategory {
    /// Functions that could not be tied to any module.
    Uncategorized,
    // --- Cross-application categories -----------------------------------
    /// Kernel and user memory copy functions (`memcpy`, `bcopy`,
    /// `__align_cpy_1`, `default_copyout`).
    BulkMemoryCopy,
    /// Kernel functionality invoked within system call interfaces
    /// (`poll`, `open`, `read`, `write`, `stat`).
    SystemCall,
    /// Kernel thread prioritization and dispatching (`disp_getwork`,
    /// `disp_getbest`, `dispdeq`, `disp_ratify`).
    KernelScheduler,
    /// Trap-vector-entered functions: MMU miss handlers and register-window
    /// management.
    KernelMmuTrap,
    /// Solaris mutex and condition-variable primitives, including
    /// sleep-queue management.
    KernelSynchronization,
    /// Remaining definitively-kernel functionality (memory/resource
    /// management and similar).
    KernelOther,
    // --- Web-specific categories -----------------------------------------
    /// Solaris STREAMS stream-based I/O implementation.
    KernelStreams,
    /// Functions that divide socket writes into IP packets.
    KernelIpPacket,
    /// Activity within the Apache or Zeus server binaries themselves.
    WebServerWorker,
    /// `Perl_sv_gets`: parsing requests passed from the web server to perl.
    CgiPerlInput,
    /// The `Perl_pp_*` primitive-operation functions of the perl engine.
    CgiPerlEngine,
    /// Other perl functionality.
    CgiPerlOther,
    // --- DB2-specific categories -----------------------------------------
    /// Block-device (disk) driver functions.
    KernelBlockDevice,
    /// DB2 `sqli`/`sqld`/`sqlpg`: index, row, and buffer-pool page accesses.
    Db2IndexPageTuple,
    /// DB2 `sqlrr`/`sqlra`: per-transaction/request context (cursors etc.).
    Db2RequestControl,
    /// DB2 client/server interprocess communication.
    Db2Ipc,
    /// DB2 `sqlri`: the parsed-execution-plan runtime interpreter.
    Db2RuntimeInterpreter,
    /// Other DB2 functionality.
    Db2Other,
}

impl MissCategory {
    /// Cross-application categories, in Table 2 order.
    pub const CROSS_APP: [MissCategory; 6] = [
        MissCategory::BulkMemoryCopy,
        MissCategory::SystemCall,
        MissCategory::KernelScheduler,
        MissCategory::KernelMmuTrap,
        MissCategory::KernelSynchronization,
        MissCategory::KernelOther,
    ];

    /// Web-specific categories, in Table 2 order.
    pub const WEB: [MissCategory; 6] = [
        MissCategory::KernelStreams,
        MissCategory::KernelIpPacket,
        MissCategory::WebServerWorker,
        MissCategory::CgiPerlInput,
        MissCategory::CgiPerlEngine,
        MissCategory::CgiPerlOther,
    ];

    /// DB2-specific categories, in Table 2 order.
    pub const DB2: [MissCategory; 6] = [
        MissCategory::KernelBlockDevice,
        MissCategory::Db2IndexPageTuple,
        MissCategory::Db2RequestControl,
        MissCategory::Db2Ipc,
        MissCategory::Db2RuntimeInterpreter,
        MissCategory::Db2Other,
    ];

    /// Every category, `Uncategorized` first, then Table 2 order.
    pub fn all() -> Vec<MissCategory> {
        let mut v = vec![MissCategory::Uncategorized];
        v.extend(Self::CROSS_APP);
        v.extend(Self::WEB);
        v.extend(Self::DB2);
        v
    }

    /// The categories reported for a given application class
    /// (`Uncategorized` + cross-application + class-specific), matching the
    /// row sets of the paper's Tables 3-5.
    pub fn for_app(app: AppClass) -> Vec<MissCategory> {
        let mut v = vec![MissCategory::Uncategorized];
        v.extend(Self::CROSS_APP);
        match app {
            AppClass::Web => v.extend(Self::WEB),
            AppClass::Oltp | AppClass::Dss => v.extend(Self::DB2),
        }
        v
    }

    /// Returns `true` if this category appears in the given application
    /// class's origin table.
    pub fn applies_to(self, app: AppClass) -> bool {
        Self::for_app(app).contains(&self)
    }

    /// Row label as printed in Tables 3-5.
    pub fn label(self) -> &'static str {
        match self {
            MissCategory::Uncategorized => "Uncategorized / Unknown",
            MissCategory::BulkMemoryCopy => "Bulk memory copies",
            MissCategory::SystemCall => "System call implementation",
            MissCategory::KernelScheduler => "Kernel task scheduler",
            MissCategory::KernelMmuTrap => "Kernel MMU & trap handlers",
            MissCategory::KernelSynchronization => "Kernel synchronization primitives",
            MissCategory::KernelOther => "Kernel - other activity",
            MissCategory::KernelStreams => "Kernel STREAMS subsystem",
            MissCategory::KernelIpPacket => "Kernel IP packet assembly",
            MissCategory::WebServerWorker => "Web server worker thread pool",
            MissCategory::CgiPerlInput => "CGI - perl input processing",
            MissCategory::CgiPerlEngine => "CGI - perl execution engine",
            MissCategory::CgiPerlOther => "CGI - perl other activity",
            MissCategory::KernelBlockDevice => "Kernel block device driver",
            MissCategory::Db2IndexPageTuple => "DB2 index, page & tuple accesses",
            MissCategory::Db2RequestControl => "DB2 SQL request control",
            MissCategory::Db2Ipc => "DB2 interprocess communication",
            MissCategory::Db2RuntimeInterpreter => "DB2 SQL runtime interpreter",
            MissCategory::Db2Other => "DB2 - other activity",
        }
    }

    /// The paper's Table-2 description of the category.
    pub fn description(self) -> &'static str {
        match self {
            MissCategory::Uncategorized => "Functions that could not be tied to a known module.",
            MissCategory::BulkMemoryCopy => {
                "Kernel and user memory copy functions such as memcpy, bcopy, \
                 __align_cpy_1, and default_copyout (which copies DMA'd I/O \
                 results from kernel to user buffers)."
            }
            MissCategory::SystemCall => {
                "Kernel functionality invoked on behalf of user threads within \
                 system call interfaces; dominated by I/O calls: poll, open, \
                 read, write, stat."
            }
            MissCategory::KernelScheduler => {
                "Kernel thread prioritization and dispatching: per-processor \
                 dispatch queues, disp_getwork/disp_getbest scanning, dispdeq, \
                 disp_ratify."
            }
            MissCategory::KernelMmuTrap => {
                "Trap-vector-entered functions other than system calls: \
                 instruction/data MMU miss handlers filling software TLBs from \
                 page tables, and register-window spill/fill traps."
            }
            MissCategory::KernelSynchronization => {
                "Solaris mutex and condition-variable primitives, including \
                 the linked lists of threads waiting on a lock or condvar."
            }
            MissCategory::KernelOther => {
                "Remaining definitively-kernel functionality: various forms of \
                 kernel memory and resource management."
            }
            MissCategory::KernelStreams => {
                "Solaris STREAMS stream-based I/O: moving pointers to strings \
                 among thread-safe message queues."
            }
            MissCategory::KernelIpPacket => {
                "Functions dividing data written to sockets into IP packets."
            }
            MissCategory::WebServerWorker => {
                "All activity within the Apache or Zeus server binaries; a \
                 surprisingly small share of overall SPECweb activity."
            }
            MissCategory::CgiPerlInput => {
                "Perl_sv_gets, parsing requests passed from the web server to \
                 perl; the most repetitive single function observed."
            }
            MissCategory::CgiPerlEngine => {
                "The Perl_pp_* primitive operations making up perl's control \
                 flow graph (Perl_pp_const, Perl_pp_print, ...)."
            }
            MissCategory::CgiPerlOther => "Other perl functionality not readily identifiable.",
            MissCategory::KernelBlockDevice => {
                "Functions managing I/O to block devices such as disks."
            }
            MissCategory::Db2IndexPageTuple => {
                "DB2 sqli/sqld/sqlpg modules: index manipulation and \
                 traversal, row fetch/update, buffer-pool page operations."
            }
            MissCategory::Db2RequestControl => {
                "DB2 sqlrr/sqlra modules: context for a transaction/request, \
                 e.g. cursor state."
            }
            MissCategory::Db2Ipc => {
                "Functions passing data between DB2 server and client \
                 processes."
            }
            MissCategory::Db2RuntimeInterpreter => {
                "DB2 sqlri module: primitive operations of the parsed \
                 execution plan, analogous to perl's Perl_pp_* functions."
            }
            MissCategory::Db2Other => {
                "Other DB2 functionality with small contribution or opaque \
                 names."
            }
        }
    }
}

impl fmt::Display for MissCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_every_group_once() {
        let all = MissCategory::all();
        assert_eq!(all.len(), 1 + 6 + 6 + 6);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "no duplicate categories");
    }

    #[test]
    fn app_rows_match_paper_tables() {
        // Tables 3-5 each have Uncategorized + 6 cross-app + 6 specific rows
        // (Table 5 prints fewer rows only because some are ~0 in DSS).
        assert_eq!(MissCategory::for_app(AppClass::Web).len(), 13);
        assert_eq!(MissCategory::for_app(AppClass::Oltp).len(), 13);
        assert_eq!(MissCategory::for_app(AppClass::Dss).len(), 13);
    }

    #[test]
    fn applicability() {
        assert!(MissCategory::KernelStreams.applies_to(AppClass::Web));
        assert!(!MissCategory::KernelStreams.applies_to(AppClass::Oltp));
        assert!(MissCategory::Db2IndexPageTuple.applies_to(AppClass::Dss));
        assert!(!MissCategory::Db2IndexPageTuple.applies_to(AppClass::Web));
        assert!(MissCategory::BulkMemoryCopy.applies_to(AppClass::Web));
        assert!(MissCategory::BulkMemoryCopy.applies_to(AppClass::Dss));
    }

    #[test]
    fn labels_and_descriptions_nonempty() {
        for c in MissCategory::all() {
            assert!(!c.label().is_empty());
            assert!(!c.description().is_empty());
        }
    }

    #[test]
    fn miss_class_labels() {
        assert_eq!(MissClass::Coherence.to_string(), "Coherence");
        assert_eq!(
            IntraChipClass::CoherencePeerL1.to_string(),
            "Coherence:Peer-L1"
        );
        assert_eq!(MissClass::ALL.len(), 4);
        assert_eq!(IntraChipClass::ALL.len(), 4);
    }

    #[test]
    fn class_index_is_position_in_all() {
        for (i, c) in MissClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, c) in IntraChipClass::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
