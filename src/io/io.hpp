// Umbrella header for ingestion: the chunked Matrix Market reader and
// the .rrsb format. Ingest ends in a resident CsrMatrix; preprocessing
// and execution always run on that.
#pragma once

#include "io/byte_reader.hpp"
#include "io/mm_stream.hpp"
#include "io/rrsb.hpp"
