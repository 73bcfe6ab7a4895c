//! The snapshot half of a launch: [`Engine::capture`] encodes the in-flight
//! state as a container, [`Restored`] decodes a chain of them back.
//!
//! One concept carries both directions: prior state is a *chain* — a full
//! base container followed by zero or more deltas — and a lone full
//! snapshot is the chain with no deltas. There is one restore path, and it
//! never asks where its containers came from (`DESIGN.md` §12).

use super::{Engine, Gpu, GpuConfig, Lane, LoopState, SimError};
use crate::checkpoint::GpuSnapshot;
use pro_core::{bdelta, snapshot_struct};
use pro_core::codec::{
    crc32, ensure, write_container, CodecError, ContainerKind, FileReader, Reader, Snapshot, Writer,
};
use pro_isa::Kernel;
use pro_sm::Sm;
use std::borrow::Cow;

/// Snapshot container section ids (see `DESIGN.md` §12).
const SEC_META: u32 = 1;
const SEC_LOOP: u32 = 2;
const SEC_GMEM: u32 = 3;
const SEC_MEM: u32 = 4;
/// Delta containers carry this instead of [`SEC_GMEM`]: only the pages
/// written since the previous capture in the chain.
const SEC_GMEM_DELTA: u32 = 5;
/// Per-SM sections live at `SEC_SM_BASE + sm_index`.
const SEC_SM_BASE: u32 = 10;

/// Full payload images of the [`bdelta`]-encoded sections (memory
/// hierarchy, one per SM) at one capture boundary. The writer diffs the
/// next capture against this; a restore reads a lone container's payloads
/// where they lie and owns only what folding a delta's bdelta stream onto
/// them produced.
pub(super) struct ChainImage<'a> {
    mem: Cow<'a, [u8]>,
    sms: Vec<Cow<'a, [u8]>>,
}

/// What makes a capture a chain link instead of a full container: its
/// position, its predecessor's CRC, and the previous capture's image to
/// diff against.
pub(super) struct ChainLink<'a> {
    pub(super) sequence: u64,
    pub(super) parent_crc: u32,
    pub(super) prev: &'a ChainImage<'static>,
}

impl Engine<'_> {
    /// Serialize the complete in-flight launch into a snapshot container.
    /// Called at the checkpoint boundary between two cycles.
    ///
    /// Without a `link` the container is full (a pause snapshot, a periodic
    /// full file, the base of a chain). With one it is a chain link: global
    /// memory is encoded as only the pages dirtied since the previous
    /// capture ([`SEC_GMEM_DELTA`]), and the memory hierarchy plus every
    /// SM — whose serialized bytes are mostly unchanged between captures
    /// but shift with variable-length fields — as [`bdelta`] streams
    /// against the previous capture's payloads. META and LOOP are small
    /// and stay full copies in every container, so identity checks never
    /// need reconstruction.
    ///
    /// Also returns the capture's full section image, which a chain writer
    /// keeps as the diff base for the next boundary.
    pub(super) fn capture(&self, link: Option<ChainLink<'_>>) -> (GpuSnapshot, ChainImage<'static>) {
        let gpu = &*self.gpu;
        let scheduler = self.lanes[0].policy.name();
        let meta = encoded(|w| Meta::of(&gpu.cfg, self.kernel, scheduler, gpu.cycle, self.start_cycle).save(w));
        let lp = encoded(|w| self.lp.save(w));
        let (gmem_id, gmem) = match link {
            Some(_) => (SEC_GMEM_DELTA, encoded(|w| gpu.gmem.save_delta(w))),
            None => (SEC_GMEM, encoded(|w| gpu.gmem.save(w))),
        };
        let mem = encoded(|w| gpu.mem.save_snapshot(w));
        let sms: Vec<Vec<u8>> = gpu
            .sms
            .iter()
            .zip(&self.lanes)
            .map(|(sm, lane)| {
                encoded(|w| {
                    sm.save_snapshot(w);
                    lane.policy.save_state(w);
                })
            })
            .collect();

        // The mirror of `Restored::parse`'s fold: a link stores each payload
        // as a diff against its predecessor, a full container the payload
        // itself.
        let mut payloads: Vec<&[u8]> = std::iter::once(&mem).chain(&sms).map(Vec::as_slice).collect();
        let diffs: Vec<Vec<u8>>;
        if let Some(l) = &link {
            let prev = std::iter::once(&l.prev.mem).chain(&l.prev.sms);
            diffs = prev.zip(&payloads).map(|(prev, new)| bdelta::encode(prev, new)).collect();
            payloads = diffs.iter().map(Vec::as_slice).collect();
        }
        let ids = [SEC_META, SEC_LOOP, gmem_id, SEC_MEM].into_iter().chain((0..).map(|i| SEC_SM_BASE + i));
        let sections: Vec<(u32, &[u8])> = ids.zip([&meta[..], &lp[..], &gmem[..]].into_iter().chain(payloads)).collect();
        let bytes = write_container(link.map(|l| (l.sequence, l.parent_crc)), &sections);
        let image = ChainImage { mem: mem.into(), sms: sms.into_iter().map(Cow::Owned).collect() };
        (GpuSnapshot::from_bytes(bytes), image)
    }
}

/// The bytes `save` writes.
fn encoded(save: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    save(&mut w);
    w.into_bytes()
}

/// Prior state parsed, CRC-checked, identity-checked and folded. A corrupt
/// container, a bare delta, another kernel's or machine's state are all
/// refused in [`Restored::parse`], before [`Restored::apply`] touches the
/// simulator; only the check that needs the launch's own policy (its
/// scheduler name) waits for `apply`.
pub(super) struct Restored<'a> {
    /// The newest container's identity and cycle coordinates.
    pub(super) meta: Meta,
    /// One per container, base first.
    readers: Vec<FileReader<'a>>,
    /// The tip's memory-hierarchy and per-SM payloads: a lone container's
    /// where they lie, a chain's as the fold of its deltas made them.
    image: ChainImage<'a>,
}

impl<'a> Restored<'a> {
    /// Decode `containers` (a full base, then its deltas in sequence order)
    /// for a launch of `kernel` on `cfg`. Identity and every section but
    /// global memory come from the newest container; the tip's
    /// memory-hierarchy and per-SM payloads are the base's with every
    /// delta's [`bdelta`] stream applied in order — the base's own bytes,
    /// uncopied, when there are no deltas.
    pub(super) fn parse(
        containers: &'a [GpuSnapshot],
        cfg: &GpuConfig,
        kernel: &Kernel,
    ) -> Result<Restored<'a>, CodecError> {
        let readers: Vec<FileReader<'a>> = containers
            .iter()
            .map(|c| FileReader::parse(c.as_bytes()))
            .collect::<Result<_, _>>()?;
        let (Some(base), Some(tip)) = (readers.first(), readers.last()) else {
            return Err(CodecError::BadValue("empty snapshot chain"));
        };
        if base.kind() != ContainerKind::Full {
            return Err(CodecError::Mismatch(
                "cannot resume from a bare delta container; load the whole chain".into(),
            ));
        }
        let meta = Meta::read(tip)?;
        meta.check_matches(&Meta::of(cfg, kernel, "", 0, 0))?;
        // The run loop subtracts the one from the other every cycle.
        ensure(meta.start_cycle <= meta.cycle, "snapshot taken before its launch began")?;

        let mut image = ChainImage {
            mem: base.section_bytes(SEC_MEM)?.into(),
            sms: (0..cfg.num_sms)
                .map(|i| base.section_bytes(SEC_SM_BASE + i).map(Cow::Borrowed))
                .collect::<Result<_, _>>()?,
        };
        for delta in &readers[1..] {
            image.mem = bdelta::apply(&image.mem, delta.section_bytes(SEC_MEM)?)?.into();
            for (i, sm) in image.sms.iter_mut().enumerate() {
                *sm = bdelta::apply(sm, delta.section_bytes(SEC_SM_BASE + i as u32)?)?.into();
            }
        }
        Ok(Restored { meta, readers, image })
    }

    /// Overwrite a GPU that has just bound the kernel with the restored
    /// state: the memory hierarchy, every SM with its freshly built policy,
    /// the run loop's outputs and, once all of those have held, device
    /// memory. Returns the run loop's outputs with the counts of blocks
    /// dispatched and of TBs in flight, which the SMs determine.
    pub(super) fn apply(
        &self,
        gpu: &mut Gpu,
        kernel: &Kernel,
        lanes: &mut [Lane],
    ) -> Result<(LoopState, u32, u32), SimError> {
        let mut r = Reader::new(&self.image.mem);
        gpu.mem.restore_snapshot(&mut r, self.meta.cycle)?;
        r.finish()?;

        // The scheduler's identity waits until here: only now is there a
        // policy instance to name.
        let name = lanes[0].policy.name();
        if self.meta.scheduler != name {
            return Err(SimError::Snapshot(CodecError::Mismatch(format!(
                "snapshot was taken under scheduler {:?}, this launch uses {name:?}",
                self.meta.scheduler
            ))));
        }
        for ((sm, lane), image) in gpu.sms.iter_mut().zip(lanes).zip(&self.image.sms) {
            let mut r = Reader::new(image);
            sm.restore_snapshot(&mut r, self.meta.cycle)?;
            lane.policy.load_state(&mut r)?;
            r.finish()?;
        }
        let tip = self.readers.last().expect("parse refused an empty chain");
        let mut r = tip.section(SEC_LOOP)?;
        let lp = LoopState::load(&mut r)?;
        r.finish()?;

        // Every section is decoded: hold the machine to its invariants at
        // the cycle it resumes at, then the run loop's outputs to the SMs.
        // The clock keeps that cycle only if both hold.
        let before = std::mem::replace(&mut gpu.cycle, self.meta.cycle);
        let held = gpu.check();
        gpu.cycle = before;
        held.map_err(|v| CodecError::Violation(Box::new(v)))?;
        let (dispatched, outstanding) = self.check_loop(&lp, &gpu.sms, kernel)?;
        // Device memory last, into the GPU's own store: the base's image,
        // then each delta's pages in sequence order. `restore` checks all of
        // them before it writes a word, so a refusal leaves the memory as
        // it was.
        let deltas: Vec<&[u8]> =
            self.readers[1..].iter().map(|d| d.section_bytes(SEC_GMEM_DELTA)).collect::<Result<_, _>>()?;
        gpu.gmem.restore(self.readers[0].section_bytes(SEC_GMEM)?, &deltas)?;
        gpu.cycle = self.meta.cycle;
        Ok((lp, dispatched, outstanding))
    }

    /// The run loop's outputs and the TBs resident on the `sms` just
    /// restored, held to the grid and the clock: the loop launches blocks
    /// from the count dispatched, indexes the utilization rows by SM and
    /// subtracts the start cycle from each retiring TB's launch cycle.
    /// Returns the counts of blocks dispatched and of TBs resident.
    fn check_loop(&self, lp: &LoopState, sms: &[Sm], kernel: &Kernel) -> Result<(u32, u32), CodecError> {
        let resident: Vec<_> =
            sms.iter().flat_map(|sm| sm.sched_view(0, false).tbs.iter().filter(|tb| tb.occupied)).collect();
        // Blocks go out in index order and stay resident until they retire,
        // so those dispatched are those retired and those resident: each
        // resident block a different one below the count.
        let retired = sms.iter().fold(0u64, |n, sm| n.saturating_add(sm.stats.tbs_completed));
        let dispatched = retired.saturating_add(resident.len() as u64);
        ensure(dispatched <= u64::from(kernel.launch.num_blocks()), "snapshot TBs dispatched past the grid")?;
        let mut blocks: Vec<u64> = resident.iter().map(|tb| u64::from(tb.global_index)).collect();
        blocks.sort_unstable();
        let distinct = blocks.windows(2).all(|b| b[0] != b[1]);
        ensure(distinct && blocks.last() < Some(&dispatched), "snapshot resident blocks not distinct dispatched ones")?;
        let run = self.meta.start_cycle..=self.meta.cycle;
        ensure(resident.iter().all(|tb| run.contains(&tb.launched_at)), "snapshot TB launched outside its run")?;
        ensure(lp.utilization.len() == sms.len(), "snapshot utilization row count")?;
        Ok((dispatched as u32, resident.len() as u32))
    }
}

/// The launch identity recorded in snapshot section `SEC_META`: enough to
/// refuse resuming into the wrong kernel, machine or scheduler, plus the
/// cycle coordinates of the checkpoint itself.
pub(super) struct Meta {
    kernel_name: String,
    instr_count: usize,
    regs: u8,
    preds: u8,
    shared_bytes: u32,
    grid: (u32, u32, u32),
    block: (u32, u32, u32),
    params: Vec<u32>,
    machine: u32,
    scheduler: String,
    pub(super) cycle: u64,
    pub(super) start_cycle: u64,
}

snapshot_struct! {
    Meta {
        kernel_name,
        instr_count,
        regs,
        preds,
        shared_bytes,
        grid,
        block,
        params,
        machine,
        scheduler,
        cycle,
        start_cycle,
    }
}

/// Canonical machine-identity string: the config's `Debug` rendering with
/// the inert `sm_workers` zeroed out, so the value a caller sets there does
/// not tell two machines apart.
pub(super) fn config_identity(cfg: &GpuConfig) -> String {
    let mut c = *cfg;
    c.sm_workers = 0;
    format!("{c:?}")
}

/// What a container records of the machine it was taken on: the CRC-32 of
/// its [`config_identity`]. A container holds no geometry of its own —
/// every cache, channel and queue is read into the one the resuming GPU
/// built — so this is the whole record, and a resume on another machine is
/// refused by it.
pub(super) fn machine_fingerprint(cfg: &GpuConfig) -> u32 {
    crc32(config_identity(cfg).as_bytes())
}

impl Meta {
    fn of(cfg: &GpuConfig, kernel: &Kernel, scheduler: &str, cycle: u64, start_cycle: u64) -> Meta {
        Meta {
            kernel_name: kernel.program.name.clone(),
            instr_count: kernel.program.instrs.len(),
            regs: kernel.program.regs,
            preds: kernel.program.preds,
            shared_bytes: kernel.program.shared_bytes,
            grid: (kernel.launch.grid.x, kernel.launch.grid.y, kernel.launch.grid.z),
            block: (
                kernel.launch.block.x,
                kernel.launch.block.y,
                kernel.launch.block.z,
            ),
            params: kernel.params.clone(),
            machine: machine_fingerprint(cfg),
            scheduler: scheduler.to_string(),
            cycle,
            start_cycle,
        }
    }

    /// The identity a container recorded.
    fn read(fr: &FileReader<'_>) -> Result<Meta, CodecError> {
        let mut r = fr.section(SEC_META)?;
        let meta = Meta::load(&mut r)?;
        r.finish()?;
        Ok(meta)
    }

    /// Refuse a resume whose kernel or machine differs from the snapshot's.
    /// (`scheduler` is checked separately, once a policy instance exists to
    /// name; `cycle`/`start_cycle` are coordinates, not identity.)
    fn check_matches(&self, current: &Meta) -> Result<(), CodecError> {
        if self.kernel_name != current.kernel_name
            || self.instr_count != current.instr_count
            || self.regs != current.regs
            || self.preds != current.preds
            || self.shared_bytes != current.shared_bytes
            || self.grid != current.grid
            || self.block != current.block
            || self.params != current.params
        {
            return Err(CodecError::Mismatch(format!(
                "snapshot is of kernel {:?}, launch is {:?}",
                self.kernel_name, current.kernel_name
            )));
        }
        if self.machine != current.machine {
            return Err(CodecError::Mismatch(format!(
                "snapshot was taken on another machine (configuration fingerprint {:#010x}, this GPU's {:#010x})",
                self.machine, current.machine
            )));
        }
        Ok(())
    }
}
