//! The predictor interface.

/// A conditional-branch direction predictor.
///
/// Predictors are driven from a resolved trace: for each dynamic
/// conditional branch the caller knows the true direction and asks the
/// predictor whether it *would have* predicted correctly, via
/// [`observe`](Predictor::observe). The split
/// [`predict`](Predictor::predict)/[`update`](Predictor::update) pair is
/// also available for callers that need to act on the prediction before
/// resolution (e.g. the detailed simulator's fetch stage).
///
/// The trait is object-safe; heterogeneous predictor studies can use
/// `Box<dyn Predictor>`. Predictors are `Send`, so a profiler can step
/// them on a thread other than the one that built them.
pub trait Predictor: Send {
    /// Predicts the direction of the branch at `pc` (`true` = taken)
    /// without updating any state.
    fn predict(&self, pc: u64) -> bool;

    /// Trains the predictor with the resolved direction of the branch
    /// at `pc`, updating pattern tables and histories.
    fn update(&mut self, pc: u64, taken: bool);

    /// Predicts, trains, and reports whether the prediction was correct.
    ///
    /// Degenerate predictors (e.g. [`Ideal`](crate::Ideal)) override
    /// this to bypass the predict/update mechanics.
    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let predicted = self.predict(pc);
        self.update(pc, taken);
        predicted == taken
    }

    /// A short human-readable name for reports ("gshare-13", …).
    fn name(&self) -> String;
}

impl<P: Predictor + ?Sized> Predictor for Box<P> {
    fn predict(&self, pc: u64) -> bool {
        (**self).predict(pc)
    }

    fn update(&mut self, pc: u64, taken: bool) {
        (**self).update(pc, taken)
    }

    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        (**self).observe(pc, taken)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gshare;

    #[test]
    fn boxed_predictor_forwards() {
        let mut p: Box<dyn Predictor> = Box::new(Gshare::new(4));
        let _ = p.predict(0);
        p.update(0, true);
        let _ = p.observe(0, true);
        assert!(p.name().contains("gshare"));
    }
}
