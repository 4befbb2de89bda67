"""Peak memory of the series stages, traced by tracemalloc.

Each bound is in arrays of n float64s, n the samples of the default record
(3600 s at 200 Hz, 720k samples), and counts what a call allocates beyond
what is held when it starts.  Every stage does its float arithmetic in
place, in buffers it returns or drops at once; the figure in parentheses
in each test is the peak of the whole-array expressions this replaced.
"""

import tracemalloc

import numpy as np
import pytest

from geyserstate.artifacts import write_table
from geyserstate.filters import ArModel, apply_filter, design_butterworth_highpass, pef
from geyserstate.synth import SynthConfig, generate
from geyserstate.timeseries import TimeSeries, load_timeseries, save_timeseries

CONFIG = SynthConfig()
N = int(round(CONFIG.duration_s * CONFIG.fs_hz))


def peak_arrays(fn):
    """(fn(), the peak it allocated beyond what was held at the call, in
    arrays of N float64s)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak / (8 * N)


@pytest.fixture(scope="module")
def record():
    ts, _ = generate(CONFIG)
    assert len(ts) == N
    return ts


def test_generate_peaks_at_four_series():
    """The output buffer, the ambient and burst layers, and the event
    layer's zeros once those two are added (8.0 with the cap check)."""
    _, peak = peak_arrays(lambda: generate(CONFIG))
    assert peak <= 4.0


def test_apply_filter_into_its_input_holds_one_block(record):
    """sosfilt's copy of one block of the input (1.1: a copy of the whole)."""
    cascade = design_butterworth_highpass(4, 0.5, CONFIG.fs_hz)
    ts = TimeSeries(record.values.copy(), CONFIG.fs_hz)
    _, peak = peak_arrays(lambda: apply_filter(cascade, ts, out=ts.values))
    assert peak <= 0.25


def test_pef_holds_its_prediction_and_one_product(record):
    """The prediction, which becomes the residual, and the buffer of one
    lag's product (3.0)."""
    model = ArModel(order_p=11, intercept_c=0.1, coeffs_alpha=np.linspace(0.3, -0.1, 11),
                    sigma2=1.0)
    _, peak = peak_arrays(lambda: pef(record, model))
    assert peak <= 2.5


def test_load_timeseries_of_a_text_table_holds_one_growing_buffer(record, tmp_path):
    """Of a caller's two-column text table: the amplitudes, grown row by
    row in one buffer that the series keeps, and the finiteness test's
    booleans (3.1 parsing the whole table at once, then one column)."""
    path = str(tmp_path / "signal.csv")
    write_table(path, [], ("timestamp_s", "amplitude"), (record.timestamps(), record.values))
    loaded, peak = peak_arrays(lambda: load_timeseries(path, CONFIG.fs_hz))
    assert loaded.values.tobytes() == record.values.tobytes()
    assert peak <= 1.5


def test_load_timeseries_of_a_series_file_holds_the_amplitudes(record, tmp_path):
    """The amplitudes it returns and the finiteness test's booleans (3.5
    parsing a text table; 1.25 while the file also held the timestamps,
    checked one block at a time)."""
    path = str(tmp_path / "signal.f8")
    save_timeseries(record, path)
    loaded, peak = peak_arrays(lambda: load_timeseries(path, CONFIG.fs_hz))
    assert loaded.values.tobytes() == record.values.tobytes()
    assert peak <= 1.15


def test_save_timeseries_holds_no_whole_series_temporary(record, tmp_path):
    """The amplitudes go out from their own buffer and the clock is two
    numbers on the header line (1.1 while it wrote the time grid first)."""
    _, peak = peak_arrays(lambda: save_timeseries(record, str(tmp_path / "signal.f8")))
    assert peak <= 0.01
