/**
 * @file
 * Minimal INI-style configuration store.
 *
 * HolDCSim experiments are "configurable by user script" (paper
 * section III); this parser accepts the classic
 *
 *   [section]
 *   key = value   ; comment
 *
 * format and exposes typed getters with defaults. Keys are addressed
 * as "section.key"; keys before any section header live in the ""
 * section and are addressed by bare name.
 */

#ifndef HOLDCSIM_SIM_CONFIG_HH
#define HOLDCSIM_SIM_CONFIG_HH

#include <cstdint>
#include <istream>
#include <map>
#include <string>
#include <vector>

#include "types.hh"

namespace holdcsim {

/** Parsed key/value configuration with typed access. */
class Config
{
  public:
    Config() = default;

    /**
     * Parse from a stream. Throws FatalError on malformed input.
     * @p origin names the source in diagnostics ("file:line").
     */
    static Config parse(std::istream &in,
                        const std::string &origin = "<config>");

    /** Parse from a string (convenience for tests). */
    static Config parseString(const std::string &text);

    /** Load from a file. Throws FatalError if unreadable. */
    static Config load(const std::string &path);

    /** Whether "section.key" exists. */
    bool has(const std::string &key) const;

    /** Explicitly set a value (programmatic configs, overrides). */
    void set(const std::string &key, const std::string &value);

    /** String getter; throws FatalError when the key is missing. */
    std::string getString(const std::string &key) const;
    std::string getString(const std::string &key,
                          const std::string &fallback) const;

    /** Integer getter; throws FatalError on missing key / bad value. */
    std::int64_t getInt(const std::string &key) const;
    std::int64_t getInt(const std::string &key,
                        std::int64_t fallback) const;

    /** Floating-point getter. */
    double getDouble(const std::string &key) const;
    double getDouble(const std::string &key, double fallback) const;

    /**
     * Duration getter for "*_ms" / "*_us" keys: the key's number
     * times @p unit (e.g. msec), truncated to whole ticks. Throws
     * FatalError, naming the key and its file:line, when the value
     * is negative, not finite or too large for a Tick -- casting
     * those to Tick would be undefined behaviour.
     */
    Tick getDuration(const std::string &key, Tick unit) const;
    Tick getDuration(const std::string &key, Tick unit,
                     Tick fallback) const;

    /** Boolean getter; accepts true/false/yes/no/on/off/1/0. */
    bool getBool(const std::string &key) const;
    bool getBool(const std::string &key, bool fallback) const;

    /** All keys, sorted (stable iteration for dumps and tests). */
    std::vector<std::string> keys() const;

    /**
     * Source location of @p key as "file:line", or "" when the key
     * is missing or was set() programmatically. Diagnostics (unknown
     * keys, malformed values) cite it so users can fix the exact
     * config line.
     */
    std::string origin(const std::string &key) const;

  private:
    struct Entry {
        std::string value;
        std::string file; ///< parse origin ("" = programmatic set())
        int line = 0;
    };

    /** " (file:line)" suffix for diagnostics, "" when unknown. */
    std::string locate(const std::string &key) const;

    std::map<std::string, Entry> _values;
};

} // namespace holdcsim

#endif // HOLDCSIM_SIM_CONFIG_HH
