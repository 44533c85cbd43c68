"""One onset/clear detector: loss estimates in, episode transitions out.

corruptd (paper Appendix C) compares a link's loss estimate to a
threshold and opens or closes a corruption episode.  That step lives
here once; the consumers differ only in the estimator feeding it —
a :class:`~repro.monitor.corruptd.LossWindow` over RX counters (corruptd,
the service's port-counter arbiter) or the 007 vote (the blame
monitor) — and in what a transition does.  A closed link opens at
``estimate >= onset_threshold``; an open link closes at ``estimate <
onset_threshold * clear_hysteresis``, so with hysteresis below 1 an
estimate hovering at the threshold cannot thrash the consumer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Mapping

__all__ = ["OnsetClearDetector"]


class OnsetClearDetector:
    """Per-link onset/clear state machine with hysteresis.

    ``on_onset(link, estimate, now)`` runs when a link opens and returns
    a handle (an episode index, a notice) kept in :attr:`open` until
    ``on_clear(link, handle, estimate, now)`` runs at its clear.
    """

    def __init__(self, onset_threshold: float, clear_hysteresis: float,
                 on_onset: Callable[[Hashable, float, Any], Any],
                 on_clear: Callable[[Hashable, Any, float, Any], None]) -> None:
        self.onset_threshold = float(onset_threshold)
        self.clear_threshold = self.onset_threshold * float(clear_hysteresis)
        self.on_onset = on_onset
        self.on_clear = on_clear
        #: link -> handle of its open episode, in opening order
        self.open: Dict[Hashable, Any] = {}
        self.onsets = 0
        self.clears = 0

    def observe(self, link: Hashable, estimate: float, now: Any) -> bool:
        """Fold one link's estimate in; True if it opened or closed."""
        if link in self.open:
            if estimate < self.clear_threshold:
                self._clear(link, estimate, now)
                return True
        elif estimate >= self.onset_threshold:
            self._onset(link, estimate, now)
            return True
        return False

    def update(self, now: Any, estimates: Mapping[Hashable, float]) -> None:
        """Fold a batch of estimates in: onsets first, then clears, each
        in the mapping's order."""
        for link, estimate in estimates.items():
            if link not in self.open and estimate >= self.onset_threshold:
                self._onset(link, estimate, now)
        for link, estimate in estimates.items():
            if link in self.open and estimate < self.clear_threshold:
                self._clear(link, estimate, now)

    def _onset(self, link: Hashable, estimate: float, now: Any) -> None:
        self.open[link] = self.on_onset(link, estimate, now)
        self.onsets += 1

    def _clear(self, link: Hashable, estimate: float, now: Any) -> None:
        self.on_clear(link, self.open.pop(link), estimate, now)
        self.clears += 1
