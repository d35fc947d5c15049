"""Process-memory gauges: procfs readings and the stage sampler."""

from __future__ import annotations

import mmap
import time

import pytest

from repro.errors import ConfigError
from repro.obs import MemorySampler, current_rss_bytes, peak_rss_bytes
from repro.obs.memory import _read_proc_field

requires_procfs = pytest.mark.skipif(
    current_rss_bytes() is None, reason="no /proc/self/status on this platform"
)


@requires_procfs
def test_current_rss_is_plausible():
    rss = current_rss_bytes()
    # A running CPython with this test suite loaded sits well inside
    # 1 MiB .. 64 GiB on any supported machine.
    assert 2**20 < rss < 2**36


@requires_procfs
def test_peak_rss_at_least_current():
    assert peak_rss_bytes() >= current_rss_bytes()


def test_peak_rss_never_zero():
    peak = peak_rss_bytes()
    assert peak is None or peak > 0


def test_read_proc_field_missing_field():
    assert _read_proc_field("NoSuchFieldXYZ") is None


@requires_procfs
def test_sampler_attributes_allocation_to_its_stage():
    sampler = MemorySampler(interval=0.005)
    with sampler:
        sampler.stage("quiet")
        time.sleep(0.02)
        sampler.stage("hungry")
        # An anonymous mapping always brings in fresh pages; a bytearray
        # may be served from freed heap memory that is still resident,
        # leaving RSS where it was.
        blob = mmap.mmap(-1, 64 * 2**20)
        for offset in range(0, len(blob), mmap.PAGESIZE):
            blob[offset] = 1
        time.sleep(0.03)
        blob.close()
    peaks = sampler.stage_peaks()
    assert peaks["hungry"] >= peaks["quiet"] + 48 * 2**20
    assert sampler.peak_bytes() == max(peaks.values())


@requires_procfs
def test_sampler_short_stage_still_sampled():
    """A stage shorter than the poll interval gets its synchronous sample."""
    sampler = MemorySampler(interval=5.0)
    with sampler:
        sampler.stage("blink")
    assert "blink" in sampler.stage_peaks()


def test_sampler_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        MemorySampler(interval=0)
    sampler = MemorySampler()
    with pytest.raises(ConfigError):
        sampler.stage("")
    with sampler:
        with pytest.raises(ConfigError):
            sampler.start()
    sampler.stop()  # second stop is a no-op


def test_sampler_restartable_after_stop():
    sampler = MemorySampler(interval=0.01)
    with sampler:
        sampler.stage("first")
    with sampler:
        sampler.stage("second")
    peaks = sampler.stage_peaks()
    assert current_rss_bytes() is None or {"first", "second"} <= set(peaks)
