// Umbrella header for the out-of-core ingestion subsystem: chunked
// Matrix Market reading, budgeted streaming CSR construction and the
// .rrsb shard format. Ingest ends in a resident CsrMatrix; preprocessing
// and execution always run on that.
#pragma once

#include "io/byte_reader.hpp"
#include "io/mm_stream.hpp"
#include "io/rrsb.hpp"
#include "io/streaming_builder.hpp"
