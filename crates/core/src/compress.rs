//! Error-feedback residuals for lossy update compression.
//!
//! Top-k sparsification drops most of each round's update mass. Left
//! uncorrected, the dropped coordinates never reach the platform and
//! the federation converges to a worse floor. The standard fix
//! (error feedback, a.k.a. memory-compensated compression) keeps the
//! dropped mass in a per-node residual and folds it into the *next*
//! round's update before compressing:
//!
//! ```text
//! compensated = update + residual          // compensate()
//! wire        = compress(compensated)
//! residual    = compensated - decode(wire) // absorb()
//! ```
//!
//! Nothing is ever lost — only delayed. One [`ErrorFeedback`] serves
//! one node: the runtime keeps it in the node's own slot, whichever
//! worker steps the node, so the residual follows *its* update stream,
//! never a worker's. Residuals live on the node side and are never
//! dropped: a platform rollback or exclusion does not reach them, and
//! the one thing that must not replay — non-finite debris from a
//! corrupt fault — is zeroed in [`ErrorFeedback::absorb`].
//!
//! Exact codecs (`none`, `dense`) bypass this module entirely: their
//! residual is identically zero and touching the update would perturb
//! the bitwise-pinned paths.

/// One node's residual buffer for memory-compensated compression.
#[derive(Debug, Default)]
pub struct ErrorFeedback {
    /// What the wire dropped last round; empty before the first.
    residual: Vec<f64>,
}

impl ErrorFeedback {
    /// A fresh buffer with no residual.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the stored residual into `update` in place (the
    /// compensation step). With no residual yet — or one of another
    /// parameter dimension — `update` is left untouched.
    pub fn compensate(&self, update: &mut [f64]) {
        if self.residual.len() == update.len() {
            for (u, r) in update.iter_mut().zip(&self.residual) {
                *u += r;
            }
        }
    }

    /// Stores what the wire dropped: `residual = compensated - decoded`,
    /// where `decoded` is the reconstruction the platform will see
    /// (obtained by parsing the just-encoded frame, so encode bugs
    /// surface as residual drift instead of silent loss). Non-finite
    /// differences — corrupt-fault debris — are recorded as zero rather
    /// than replayed into every future round.
    ///
    /// # Panics
    ///
    /// Panics if `decoded` yields fewer values than `compensated` has —
    /// the reconstruction must cover every coordinate.
    pub fn absorb(&mut self, compensated: &[f64], decoded: impl IntoIterator<Item = f64>) {
        self.residual.clear();
        self.residual.reserve(compensated.len());
        let mut decoded = decoded.into_iter();
        for &c in compensated {
            let d = decoded.next().expect("reconstruction covers every slot");
            let r = c - d;
            self.residual.push(if r.is_finite() { r } else { 0.0 });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference top-k compressor: keep the k largest |v|, zero the rest.
    fn topk(values: &[f64], k: usize) -> Vec<f64> {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| values[b].abs().total_cmp(&values[a].abs()).then(a.cmp(&b)));
        let mut out = vec![0.0; values.len()];
        for &i in idx.iter().take(k) {
            out[i] = values[i];
        }
        out
    }

    /// The stored residual, read back by compensating zeros.
    fn residual(fb: &ErrorFeedback, len: usize) -> Vec<f64> {
        let mut stored = vec![0.0; len];
        fb.compensate(&mut stored);
        stored
    }

    #[test]
    fn residual_holds_exactly_the_dropped_mass() {
        let mut fb = ErrorFeedback::new();
        let mut update = vec![1.0, -0.5, 3.0, 0.25];
        fb.compensate(&mut update);
        assert_eq!(update, vec![1.0, -0.5, 3.0, 0.25], "no residual yet");
        let wire = topk(&update, 1);
        fb.absorb(&update, wire.iter().cloned());
        assert_eq!(residual(&fb, 4), vec![1.0, -0.5, 0.0, 0.25]);
    }

    #[test]
    fn dropped_mass_reappears_next_round() {
        let mut fb = ErrorFeedback::new();
        let first = vec![1.0, -0.5, 3.0, 0.25];
        let mut compensated = first.clone();
        fb.compensate(&mut compensated);
        fb.absorb(&compensated, topk(&compensated, 1));
        // Next round's raw update is zero; the compensated update must
        // be exactly what round one dropped.
        let mut second = vec![0.0; 4];
        fb.compensate(&mut second);
        assert_eq!(second, vec![1.0, -0.5, 0.0, 0.25]);
        // A k that covers everything flushes the residual to zero.
        fb.absorb(&second, topk(&second, 4));
        assert_eq!(residual(&fb, 4), vec![0.0; 4]);
    }

    #[test]
    fn dimension_change_and_corrupt_debris_do_not_replay() {
        let mut fb = ErrorFeedback::new();
        // A stored residual of the wrong dimension is ignored.
        fb.absorb(&[1.0, 1.0], [0.0, 0.0]);
        assert_eq!(residual(&fb, 1), vec![0.0]);
        // Non-finite differences are recorded as zero.
        fb.absorb(&[f64::NAN, 2.0], [0.0, f64::INFINITY]);
        assert_eq!(residual(&fb, 2), vec![0.0, 0.0]);
    }
}
