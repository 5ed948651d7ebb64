//! The rank table: one dispatch from a runtime rank `K` to the instance
//! of an update-loop kernel compiled for it.
//!
//! The update loop's kernels — the fused step's row block and column
//! stripe in `smfl-core`, the SDDMM and SpMM rows of [`crate::kernels`] —
//! are written once, generic over [`Rank`].
//! [`with_rank!`](crate::with_rank) calls such a body with [`Fixed<K>`]
//! for every `K` in [`FIXED_RANKS`] and with [`Runtime`] for every other
//! rank. At a fixed rank the loops over a
//! row's `K` entries have compile-time trip counts, so they unroll, and
//! the accumulators are arrays held in registers; the runtime instance
//! runs the same body with a runtime `K` and its accumulators in one heap
//! allocation per kernel call.
//!
//! The table holds the ranks that are run: 1..=8, 10 and 12 (the
//! defaults, the grid search and the paper's Fig. 8 sweep, K = 2, 4, …, 12)
//! and the wide tables' rank 20. Each arm costs code size and build time,
//! since every generic kernel is compiled once per arm in both
//! instruction-set instances of [`crate::simd`]; a rank outside the table
//! gives the same bits, only slower (DESIGN §8).
//!
//! Both instances of a rank compute the same bits: the body performs the
//! same operations in the same order whatever the rank's type.

/// The rank `K` of a kernel: a compile-time constant ([`Fixed`]) or a
/// runtime value ([`Runtime`]).
pub trait Rank: Copy + Send + Sync {
    /// Four `K`-slot accumulators, held by value in the kernel that
    /// uses them.
    type Acc: Slots;

    /// Where a kernel sums one `K`-long output row.
    type Row: RowSum;

    /// The rank.
    fn k(self) -> usize;

    /// Four zeroed accumulators.
    fn acc(self) -> Self::Acc;

    /// A row sum; allocates nothing at any rank.
    fn row(self) -> Self::Row;
}

/// Four accumulators lent out as slices.
pub trait Slots {
    /// The four `K`-long accumulators.
    fn slots(&mut self) -> [&mut [f64]; 4];
}

impl<const K: usize> Slots for [[f64; K]; 4] {
    #[inline(always)]
    fn slots(&mut self) -> [&mut [f64]; 4] {
        let [a, b, c, d] = self;
        [a, b, c, d]
    }
}

/// A `K`-long sum for one output row `out`, which [`RowSum::start`]
/// zeroes and [`RowSum::finish`] stores into `out`.
pub trait RowSum {
    /// The zeroed sum: a register-held array at a fixed rank, `out`
    /// itself at a runtime rank.
    fn start<'a>(&'a mut self, out: &'a mut [f64]) -> &'a mut [f64];

    /// Stores the sum begun by `start` into `out`.
    fn finish(&self, out: &mut [f64]);
}

impl<const K: usize> RowSum for [f64; K] {
    #[inline(always)]
    fn start<'a>(&'a mut self, _out: &'a mut [f64]) -> &'a mut [f64] {
        *self = [0.0; K];
        self
    }

    #[inline(always)]
    fn finish(&self, out: &mut [f64]) {
        out.copy_from_slice(self);
    }
}

/// The runtime-rank row sum, which sums in the output row itself.
impl RowSum for () {
    #[inline(always)]
    fn start<'a>(&'a mut self, out: &'a mut [f64]) -> &'a mut [f64] {
        out.fill(0.0);
        out
    }

    #[inline(always)]
    fn finish(&self, _out: &mut [f64]) {}
}

/// The runtime-rank accumulators: `4·K` values in one allocation.
impl Slots for Vec<f64> {
    #[inline(always)]
    fn slots(&mut self) -> [&mut [f64]; 4] {
        let k = self.len() / 4;
        let (a, rest) = self.split_at_mut(k);
        let (b, rest) = rest.split_at_mut(k);
        let (c, d) = rest.split_at_mut(k);
        [a, b, c, d]
    }
}

/// A compile-time rank `K`.
#[derive(Clone, Copy)]
pub struct Fixed<const K: usize>;

impl<const K: usize> Rank for Fixed<K> {
    type Acc = [[f64; K]; 4];
    type Row = [f64; K];

    #[inline(always)]
    fn k(self) -> usize {
        K
    }

    #[inline(always)]
    fn acc(self) -> [[f64; K]; 4] {
        [[0.0; K]; 4]
    }

    #[inline(always)]
    fn row(self) -> [f64; K] {
        [0.0; K]
    }
}

/// A rank known only at run time.
#[derive(Clone, Copy)]
pub struct Runtime(pub usize);

impl Rank for Runtime {
    type Acc = Vec<f64>;
    type Row = ();

    #[inline(always)]
    fn k(self) -> usize {
        self.0
    }

    /// One small allocation per kernel call.
    #[inline(always)]
    fn acc(self) -> Vec<f64> {
        vec![0.0; 4 * self.0]
    }

    #[inline(always)]
    fn row(self) {}
}

/// The ranks [`with_rank!`](crate::with_rank) runs through a [`Fixed`]
/// instance, read off the macro's table.
pub const FIXED_RANKS: &[usize] = &crate::with_rank!(@ranks @list);

/// Evaluates `$body` with `$rank` bound to the rank `$k`: a [`Fixed`]
/// instance for every `K` in [`FIXED_RANKS`], [`Runtime`] for any other.
///
/// ```
/// use smfl_linalg::rank::Rank;
/// use smfl_linalg::with_rank;
///
/// fn width<R: Rank>(rank: R) -> usize {
///     rank.k()
/// }
/// assert_eq!(with_rank!(10, |rank| width(rank)), 10);
/// assert_eq!(with_rank!(24, |rank| width(rank)), 24);
/// ```
#[macro_export]
macro_rules! with_rank {
    ($k:expr, |$rank:ident| $body:expr) => {
        $crate::with_rank!(@ranks @table $k, $rank, $body)
    };
    // The table, the one list of fixed ranks: appended to the arm named
    // by `$then`.
    (@ranks $($then:tt)*) => {
        $crate::with_rank!($($then)*; 1 2 3 4 5 6 7 8 10 12 20)
    };
    (@table $k:expr, $rank:ident, $body:expr; $($n:literal)*) => {
        match $k {
            $($n => {
                let $rank = $crate::rank::Fixed::<$n>;
                $body
            })*
            k => {
                let $rank = $crate::rank::Runtime(k);
                $body
            }
        }
    };
    (@list; $($n:literal)*) => {
        [$($n),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance<R: Rank>(rank: R) -> (usize, bool) {
        (rank.k(), std::any::type_name::<R>().contains("Fixed"))
    }

    #[test]
    fn the_table_runs_fixed_instances_exactly_at_its_ranks() {
        for k in 0..=40 {
            let (got, fixed) = with_rank!(k, |rank| instance(rank));
            assert_eq!(got, k);
            assert_eq!(fixed, FIXED_RANKS.contains(&k), "K = {k}");
        }
    }

    #[test]
    fn row_sums_start_at_zero_and_land_in_the_output_row() {
        fn check<R: Rank>(rank: R) {
            let k = rank.k();
            let mut out = vec![f64::NAN; k];
            let mut row = rank.row();
            let sum = row.start(&mut out);
            assert!(sum.len() == k && sum.iter().all(|&a| a == 0.0));
            for (i, s) in sum.iter_mut().enumerate() {
                *s += i as f64;
            }
            row.finish(&mut out);
            assert!(out.iter().enumerate().all(|(i, &o)| o == i as f64));
        }
        for k in [1, 7, 13, 20, 24] {
            with_rank!(k, |rank| check(rank));
            check(Runtime(k));
        }
    }

    #[test]
    fn accumulators_are_four_zeroed_k_slot_rows() {
        fn check<R: Rank>(rank: R) {
            let mut acc = rank.acc();
            for slot in acc.slots() {
                assert_eq!(slot.len(), rank.k());
                assert!(slot.iter().all(|&a| a == 0.0));
            }
        }
        for k in [1, 7, 13, 20, 24] {
            with_rank!(k, |rank| check(rank));
            check(Runtime(k));
        }
    }
}
