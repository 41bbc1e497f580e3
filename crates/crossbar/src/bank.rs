//! The process-wide device stream bank.
//!
//! A simulated chip is one fixed silicon instance: its devices are drawn
//! once from `StdRng::seed_from_u64(seed)`, and every game programmed onto
//! it only changes which of the two stored states each cell holds. The
//! bank keeps that draw. Entry `c` of a stream is the pair
//! `[off, on]` — the selected-cell current of cell `c` storing '0' and
//! storing '1' — computed from the `c`-th [`DeviceSample`] of the
//! sequential stream, so reading a cell from the bank is bit-identical to
//! sampling the stream from the start.
//!
//! Streams are keyed bit-exactly by `(seed, VariabilityModel,
//! CellParams)`. The bank retains at most [`MAX_STREAMS`] streams (least
//! recently used evicted) of at most [`RETAINED_CELLS`] cells each; a
//! request for more cells continues from the retained RNG state into a
//! caller-owned buffer that is dropped with the [`DeviceCells`].
//!
//! [`DeviceSample`]: cnash_device::variability::DeviceSample

use cnash_device::cell::{CellParams, OneFeFetOneR};
use cnash_device::fefet::FeFetState;
use cnash_device::variability::VariabilityModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, PoisonError};

/// Streams kept at once: the `M` and `Nᵀ` arrays of two hardware seeds.
const MAX_STREAMS: usize = 4;

/// Cells retained per stream (2^21 cells × 16 B = 32 MiB).
const RETAINED_CELLS: usize = 1 << 21;

/// Bit-exact identity of a device stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamKey([u64; 13]);

impl StreamKey {
    fn new(seed: u64, variability: &VariabilityModel, params: &CellParams) -> Self {
        let f = &params.fefet;
        Self([
            seed,
            variability.sigma_vth.to_bits(),
            variability.sigma_resistor_rel.to_bits(),
            params.resistance.to_bits(),
            params.v_wl_read.to_bits(),
            params.v_dl_read.to_bits(),
            f.vth_low.to_bits(),
            f.vth_high.to_bits(),
            f.subthreshold_swing.to_bits(),
            f.i_threshold.to_bits(),
            f.i_on.to_bits(),
            f.i_leak.to_bits(),
            f.overdrive_sat.to_bits(),
        ])
    }
}

/// The retained prefix of one stream and the RNG state just after it.
#[derive(Debug, Clone)]
struct Retained {
    cells: Vec<[f64; 2]>,
    rng: StdRng,
}

#[derive(Debug)]
struct Stream {
    key: StreamKey,
    variability: VariabilityModel,
    params: CellParams,
    /// Extension is serialised by this lock; readers clone the `Arc` and
    /// release it, so a reader never sees a stream change under it.
    retained: Mutex<Arc<Retained>>,
}

impl Stream {
    /// Draws the next cell of the stream.
    fn draw(&self, rng: &mut StdRng) -> [f64; 2] {
        let sample = self.variability.sample(rng);
        let current = |bit| {
            OneFeFetOneR::new(FeFetState::from_bit(bit), self.params, sample)
                .output_current(true, true)
        };
        [current(false), current(true)]
    }

    /// The retained prefix, extended first to `min(n, RETAINED_CELLS)`.
    fn retained(&self, n: usize) -> Arc<Retained> {
        let want = n.min(RETAINED_CELLS);
        // A panic mid-extension could leave `rng` ahead of `cells`, so a
        // poisoned stream is not reused.
        let mut guard = self.retained.lock().expect("device stream poisoned");
        if guard.cells.len() < want {
            // Copies the prefix only if a reader still holds the old one.
            let r = Arc::make_mut(&mut guard);
            r.cells.reserve_exact(want - r.cells.len());
            while r.cells.len() < want {
                let cell = self.draw(&mut r.rng);
                r.cells.push(cell);
            }
        }
        Arc::clone(&guard)
    }
}

/// Most recently used last.
static BANK: Mutex<Vec<Arc<Stream>>> = Mutex::new(Vec::new());

fn stream(seed: u64, variability: &VariabilityModel, params: &CellParams) -> Arc<Stream> {
    let key = StreamKey::new(seed, variability, params);
    // Every update below leaves the list valid, so a poisoned lock is safe.
    let mut bank = BANK.lock().unwrap_or_else(PoisonError::into_inner);
    let stream = match bank.iter().position(|s| s.key == key) {
        Some(at) => bank.remove(at),
        None => Arc::new(Stream {
            key,
            variability: *variability,
            params: *params,
            retained: Mutex::new(Arc::new(Retained {
                cells: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
            })),
        }),
    };
    bank.push(Arc::clone(&stream));
    if bank.len() > MAX_STREAMS {
        bank.remove(0);
    }
    stream
}

/// The first `n` cells of one device stream: a shared retained prefix
/// plus, past [`RETAINED_CELLS`], a private tail.
pub(crate) struct DeviceCells {
    head: Arc<Retained>,
    tail: Vec<[f64; 2]>,
    n: usize,
}

impl DeviceCells {
    /// Cells `0..n` of the stream `StdRng::seed_from_u64(seed)` draws
    /// under `variability` and `params`.
    pub(crate) fn new(
        seed: u64,
        variability: &VariabilityModel,
        params: &CellParams,
        n: usize,
    ) -> Self {
        let stream = stream(seed, variability, params);
        let head = stream.retained(n);
        let mut tail = Vec::new();
        if n > head.cells.len() {
            let mut rng = head.rng.clone();
            tail.reserve_exact(n - head.cells.len());
            tail.extend((head.cells.len()..n).map(|_| stream.draw(&mut rng)));
        }
        Self { head, tail, n }
    }

    /// `[off, on]` currents of cells `0..n`, in stream order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[f64; 2]> {
        let head = &self.head.cells[..self.n.min(self.head.cells.len())];
        head.iter().chain(&self.tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_differ_in_every_parameter() {
        let v = VariabilityModel::paper();
        let p = CellParams::default();
        let base = StreamKey::new(1, &v, &p);
        assert_ne!(base, StreamKey::new(2, &v, &p));
        assert_ne!(base, StreamKey::new(1, &v.scaled(2.0), &p));
        let mut q = p;
        q.fefet.overdrive_sat += 0.01;
        assert_ne!(base, StreamKey::new(1, &v, &q));
        let mut q = p;
        q.fefet.i_leak *= 2.0;
        assert_ne!(base, StreamKey::new(1, &v, &q));
    }
}
