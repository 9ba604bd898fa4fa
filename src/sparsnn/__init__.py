"""sparsnn: sparse spiking network training with a tile-machine cost model.

Train multi-layer leaky integrate-and-fire networks with surrogate-gradient
backpropagation through time, using either dense binary spike tensors or a
fixed-capacity sparse spike representation, and model the cost of running
either path on a bulk-synchronous manycore chip with per-tile memory.
"""

from .engine import (
    DENSE,
    RELAXED,
    SPARSE,
    ForwardTrace,
    backward_pass,
    evaluate,
    forward_pass,
    softmax_cross_entropy,
    train_epoch,
)
from .errors import (
    ConfigError,
    ContractViolation,
    CorruptionError,
    DataFormatError,
    NonFiniteStep,
    OutOfTileMemory,
)
from .events import (
    DATASET_PRESETS,
    DatasetSpec,
    EventStream,
    SpikeDataset,
    bin_events,
    load_dataset,
    load_events,
    sparse_hidden_size,
    synth_pattern_dataset,
    write_dataset,
    write_events,
)
from .kernels import (
    dense_forward_current,
    sparse_forward_current,
    sparse_input_grad,
    sparse_weight_grad,
)
from .lif import (
    LayerWeights,
    LifParams,
    NetworkSpec,
    surrogate,
    threshold_spikes_dense,
)
from .machine import (
    CostLedger,
    CostParams,
    MachineSpec,
    TileMapping,
    acceleration_model,
    map_neurons,
    simulate_batch,
    weak_scale_run,
)
from .model import Network, init_network, load_checkpoint, save_checkpoint
from .optim import AdamState, SgdState, adam_step, sgd_step
from .rng import DropRng
from .sparse import (
    SENTINEL,
    SparseSpikeBatch,
    decode_to_dense,
    encode_sparse,
)

__version__ = "0.1.0"
