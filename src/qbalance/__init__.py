"""Variable-length balancing schemes and their exact redundancy analysis.

Three codecs map messages onto constant-weight words with a short
variable-length prefix: a fixed-length scheme (A), a one-bit-appended
variant with a clean closed-form analysis (B), and a cyclic-shift
variant over cyclic codes that preserves error correction (C).  The
analysis side reproduces the average-redundancy tables exactly from
lattice-path counts, closed formulas, and a syndrome trellis, all
cross-checked by brute-force oracles.
"""

from .words import BitWord, all_words, balancing_indices, complement, cyclic_running_sum, cyclic_shift, flip_indices, flip_prefix, running_sum, weight
from .lattice import PathBand, count_banded
from .scheme_a import (
    Classification,
    EncodeResult,
    count_bad,
    decode_a,
    encode_a,
    gamma_set_a,
    optimal_redundancy,
    rho_a_bound,
)
from .scheme_b import (
    count_bad_b,
    decode_b,
    encode_b,
    gamma_set_b,
    rho_b,
    rho_b_asymptote,
    t_b,
)
from .cyclic_code import CyclicCode, from_generator, full_space, min_distance, parse_code_file
from .scheme_c import (
    StreamEncoding,
    StreamFrame,
    balancing_shifts,
    build_balanced_code,
    correct_block,
    decode_c,
    encode_c,
    flip_c,
    gamma_size_c,
    rho_c_fullspace,
    stream_decode,
    stream_encode,
)
from . import trellis, oracle

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
