//! Input abstraction of the batched assembly drivers: a [`BatchSource`]
//! yields, per subdomain, the Cholesky factor `L` and the row-permuted
//! gluing block `B̃ᵀ`.
//!
//! Two shapes of input unify behind the trait:
//!
//! - **eager** — the factors already exist, e.g. a slice of
//!   [`BatchItem`](crate::batch::BatchItem)s: [`BatchSource::factor`]
//!   borrows;
//! - **lazy** — each subdomain's factor is *derived inside its own task*
//!   ([`LazyBatch`]): [`BatchSource::factor`] returns an owned
//!   [`Cow`], so peak memory holds at most one in-flight factor copy per
//!   worker thread instead of one per subdomain — the right shape for
//!   clusters with hundreds of subdomains.
//!
//! [`AssemblySession::assemble`](crate::AssemblySession::assemble) accepts
//! anything implementing [`IntoBatchSource`], which is blanket-implemented
//! for every [`BatchSource`].

use crate::batch::BatchItemOf;
use sc_dense::Scalar;
use sc_sparse::{Csc, CscOf};
use std::borrow::Cow;

/// Per-subdomain input of the batched assembly drivers, in working
/// precision `S` (`f64` by default — every historical `BatchSource` bound
/// resolves unchanged; the mixed-precision session path consumes
/// `BatchSource<f32>` sources built by casting).
///
/// `factor(i)` may be called from any worker thread (hence `Sync`) and may
/// be expensive (lazy derivation); `gluing(i)` must be a cheap borrow.
pub trait BatchSource<S: Scalar = f64>: Sync {
    /// Number of subdomains in the batch.
    fn len(&self) -> usize;

    /// Whether the batch is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The Cholesky factor of subdomain `i` (CSC, diag-first) — borrowed
    /// when it already exists, owned when derived inside the calling task.
    fn factor(&self, i: usize) -> Cow<'_, CscOf<S>>;

    /// `B̃ᵢᵀ` of subdomain `i`, rows already permuted into factor order.
    fn gluing(&self, i: usize) -> &CscOf<S>;
}

/// Conversion into a [`BatchSource`] — the bound of
/// [`AssemblySession::assemble`](crate::AssemblySession::assemble). Blanket
/// implemented for every source, so eager slices and [`LazyBatch`] closures
/// pass through one entry point.
pub trait IntoBatchSource<S: Scalar = f64> {
    /// The concrete source type.
    type Source: BatchSource<S>;

    /// Perform the conversion.
    fn into_batch_source(self) -> Self::Source;
}

impl<S: Scalar, T: BatchSource<S>> IntoBatchSource<S> for T {
    type Source = T;

    fn into_batch_source(self) -> T {
        self
    }
}

/// References to sources are sources (the drivers take them by value).
impl<S: Scalar, T: BatchSource<S> + ?Sized> BatchSource<S> for &T {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn factor(&self, i: usize) -> Cow<'_, CscOf<S>> {
        (**self).factor(i)
    }

    fn gluing(&self, i: usize) -> &CscOf<S> {
        (**self).gluing(i)
    }
}

impl<'a, S: Scalar> BatchSource<S> for [BatchItemOf<'a, S>] {
    fn len(&self) -> usize {
        <[BatchItemOf<'a, S>]>::len(self)
    }

    fn factor(&self, i: usize) -> Cow<'_, CscOf<S>> {
        Cow::Borrowed(self[i].l)
    }

    fn gluing(&self, i: usize) -> &CscOf<S> {
        self[i].bt
    }
}

impl<'a, S: Scalar> BatchSource<S> for Vec<BatchItemOf<'a, S>> {
    fn len(&self) -> usize {
        <[BatchItemOf<'a, S>]>::len(self)
    }

    fn factor(&self, i: usize) -> Cow<'_, CscOf<S>> {
        Cow::Borrowed(self[i].l)
    }

    fn gluing(&self, i: usize) -> &CscOf<S> {
        self[i].bt
    }
}

/// Owned `(L, B̃ᵀ)` pairs (the shape bench workloads carry) are a source
/// too — both matrices borrow from the slice.
impl<S: Scalar> BatchSource<S> for [(CscOf<S>, CscOf<S>)] {
    fn len(&self) -> usize {
        <[(CscOf<S>, CscOf<S>)]>::len(self)
    }

    fn factor(&self, i: usize) -> Cow<'_, CscOf<S>> {
        Cow::Borrowed(&self[i].0)
    }

    fn gluing(&self, i: usize) -> &CscOf<S> {
        &self[i].1
    }
}

impl<S: Scalar> BatchSource<S> for Vec<(CscOf<S>, CscOf<S>)> {
    fn len(&self) -> usize {
        <[(CscOf<S>, CscOf<S>)]>::len(self)
    }

    fn factor(&self, i: usize) -> Cow<'_, CscOf<S>> {
        Cow::Borrowed(&self[i].0)
    }

    fn gluing(&self, i: usize) -> &CscOf<S> {
        &self[i].1
    }
}

/// A lazy [`BatchSource`]: `prepare(i, item)` yields subdomain `i`'s factor
/// (borrowed when it already exists, owned when derived inside the task) and
/// `gluing(item)` borrows its gluing block.
///
/// ```
/// use sc_core::{AssemblySession, Backend, LazyBatch, ScConfig};
/// # use sc_sparse::{Coo, Csc};
/// # let mut c = Coo::new(2, 2);
/// # c.push(0, 0, 4.0); c.push(1, 1, 4.0);
/// # c.push(1, 0, -1.0); c.push(0, 1, -1.0);
/// # let k = c.to_csc();
/// # let mut b = Coo::new(2, 1);
/// # b.push(0, 0, 1.0);
/// # let bt = b.to_csc();
/// # let chol = sc_factor::SparseCholesky::factorize(&k, Default::default()).unwrap();
/// # let items = vec![(chol, bt)];
/// // items: Vec<(SparseCholesky, Csc)> — the factor is extracted per task
/// let source = LazyBatch::new(
///     &items,
///     |_, (chol, _)| std::borrow::Cow::Owned(chol.factor_csc()),
///     |(_, bt)| bt,
/// );
/// let session = AssemblySession::new(Backend::cpu(), ScConfig::optimized(false, false));
/// let result = session.assemble(source);
/// assert_eq!(result.f.len(), 1);
/// ```
pub struct LazyBatch<'a, T, FP, FB> {
    items: &'a [T],
    prepare: FP,
    gluing: FB,
}

impl<'a, T, FP, FB> LazyBatch<'a, T, FP, FB>
where
    T: Sync,
    FP: for<'b> Fn(usize, &'b T) -> Cow<'b, Csc> + Sync,
    FB: Fn(&T) -> &Csc + Sync,
{
    /// Wrap `items` with a per-task factor derivation.
    pub fn new(items: &'a [T], prepare: FP, gluing: FB) -> Self {
        LazyBatch {
            items,
            prepare,
            gluing,
        }
    }
}

impl<'a, T, FP, FB> BatchSource for LazyBatch<'a, T, FP, FB>
where
    T: Sync,
    FP: for<'b> Fn(usize, &'b T) -> Cow<'b, Csc> + Sync,
    FB: Fn(&T) -> &Csc + Sync,
{
    fn len(&self) -> usize {
        self.items.len()
    }

    fn factor(&self, i: usize) -> Cow<'_, Csc> {
        (self.prepare)(i, &self.items[i])
    }

    fn gluing(&self, i: usize) -> &Csc {
        (self.gluing)(&self.items[i])
    }
}
